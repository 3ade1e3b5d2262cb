"""Propagator checks: analytic free motion, unitarity, reversibility, and a
momentum-resolved transmission oracle through a thin barrier."""

import numpy as np
import pytest

from weaktunnel.core import BarrierSpec, Grid, gaussian_packet
from weaktunnel.errors import ConfigError, EdgeDensityError
from weaktunnel.scatter import scattering_amplitudes
from weaktunnel.tdse import (PropagatorConfig, energy_expectation, propagate,
                             propagate_backward)

FREE_GRID = Grid.from_domain(-128.0, 128.0, 1024)


def free_packet(k0=0.5, x0=-40.0, sigma=6.0):
    return gaussian_packet(FREE_GRID, x0, sigma, k0)


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_free_packet_follows_analytic_dispersion(scheme):
    x0, sigma, k0, t = -40.0, 6.0, 0.5, 60.0
    psi = free_packet(k0, x0, sigma)
    cfg = PropagatorConfig(dt=0.01, n_steps=6000, scheme=scheme, record_times=(t,))
    (_, final), = propagate(psi, cfg)
    assert final.expectation_x() == pytest.approx(x0 + k0 * t, rel=1e-4)
    var_t = sigma**2 + t**2 / (4.0 * sigma**2)
    assert final.variance_x() == pytest.approx(var_t, rel=1e-4)


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_norm_drift_stays_below_budget(scheme):
    psi = free_packet()
    barrier = BarrierSpec.rectangular(-2.0, 2.0, 1.0)
    cfg = PropagatorConfig(dt=0.002, n_steps=10_000, scheme=scheme)
    (_, final), = propagate(psi, cfg, barrier)
    assert abs(final.norm() - 1.0) <= 1e-8


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_forward_then_backward_recovers_initial_state(scheme):
    psi = free_packet(k0=0.8)
    barrier = BarrierSpec.rectangular(-2.0, 2.0, 1.0)
    cfg = PropagatorConfig(dt=0.005, n_steps=4000, scheme=scheme)
    (_, final), = propagate(psi, cfg, barrier)
    (_, back), = propagate_backward(final, cfg, barrier)
    l2 = np.sqrt(np.sum(np.abs(back.amp - psi.amp) ** 2) * FREE_GRID.dx)
    assert l2 < 1e-9


def test_time_zero_record_is_the_initial_state():
    psi = free_packet()
    cfg = PropagatorConfig(dt=0.01, n_steps=100, record_times=(0.0, 0.5, 1.0))
    snaps = propagate(psi, cfg)
    assert [s.t for s in snaps] == [0.0, 0.5, 1.0]
    assert np.array_equal(snaps[0].psi.amp, psi.amp)


def test_record_time_validation():
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=100, record_times=(0.005,))
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=100, record_times=(2.0,))
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=100, record_times=(0.5, 0.2))
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=100, record_times=(0.5, 0.5))
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=-0.01, n_steps=100)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=-1)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=100, scheme="leapfrog")


def test_edge_density_guard_fires():
    psi = gaussian_packet(FREE_GRID, 80.0, 6.0, 1.0)
    cfg = PropagatorConfig(dt=0.01, n_steps=6000, record_times=(20.0, 60.0))
    with pytest.raises(EdgeDensityError):
        propagate(psi, cfg)


def test_edge_guard_catches_wrap_around_between_records():
    """A packet that crosses the periodic boundary and comes back near its
    start before the only record must still trip the edge guard."""
    grid = Grid.from_domain(-64.0, 64.0, 512)
    psi = gaussian_packet(grid, 0.0, 4.0, 3.0)
    cfg = PropagatorConfig(dt=0.01, n_steps=4267)
    with pytest.raises(EdgeDensityError, match="t=12.91"):
        propagate(psi, cfg)


def test_edge_limit_override_is_respected():
    psi = gaussian_packet(FREE_GRID, 80.0, 6.0, 1.0)
    cfg = PropagatorConfig(dt=0.01, n_steps=2000, record_times=(20.0,))
    with pytest.raises(EdgeDensityError):
        propagate(psi, cfg, edge_limit=1e-30)
    snaps = propagate(psi, cfg, edge_limit=1.0)
    assert len(snaps) == 1


def test_cross_scheme_agreement_on_default_scenario(default_scheme_finals):
    finals = default_scheme_finals["finals"]
    dx = default_scheme_finals["cfg"].grid().dx
    a = finals["spectral-split-step"].amp
    b = finals["implicit-fd"].amp
    l2 = np.sqrt(np.sum(np.abs(a - b) ** 2) * dx)
    assert l2 < 1e-5


def test_thin_barrier_transmission_matches_momentum_composition():
    """Transmitted weight equals |phi(k)|^2-weighted stationary transmission."""
    grid = Grid.from_domain(-256.0, 256.0, 2048)
    barrier = BarrierSpec.rectangular(-1.0, 1.0, 1.0)
    psi = gaussian_packet(grid, -60.0, 10.0, 1.0)
    cfg = PropagatorConfig(dt=0.0025, n_steps=48_000)  # records only t=120
    (_, final), = propagate(psi, cfg, barrier)

    measured = float(np.sum(final.density()[grid.x >= 1.0]) * grid.dx)

    spectrum = np.fft.fft(psi.amp) * grid.dx / np.sqrt(2.0 * np.pi)
    weights = np.abs(spectrum) ** 2 * (2.0 * np.pi / (grid.n * grid.dx))
    predicted = 0.0
    for k, w in zip(grid.k, weights):
        if k <= 0.0 or w < 1e-18:
            continue
        predicted += w * scattering_amplitudes(0.5 * k * k, barrier).transmission

    assert scattering_amplitudes(0.5, barrier).transmission == pytest.approx(
        7.065082485316447e-02, rel=1e-10)
    assert measured == pytest.approx(predicted, rel=2e-3)
    # energy is conserved along the run
    e0 = energy_expectation(psi, barrier)
    assert energy_expectation(final, barrier) == pytest.approx(e0, rel=1e-6)


def test_energy_expectation_free_gaussian():
    psi = free_packet(k0=1.0, x0=-40.0, sigma=10.0)
    analytic = 0.5 * (1.0 + 1.0 / (4.0 * 100.0))
    assert energy_expectation(psi) == pytest.approx(analytic, rel=1e-10)


def test_energy_expectation_includes_potential_weight():
    grid = Grid.from_domain(-128.0, 128.0, 1024)
    psi = gaussian_packet(grid, 0.0, 8.0, 0.0)
    barrier = BarrierSpec.rectangular(-4.0, 4.0, 2.0)
    inside = float(np.sum(psi.density()[(grid.x >= -4.0) & (grid.x < 4.0)]) * grid.dx)
    expected = energy_expectation(psi) + 2.0 * inside
    assert energy_expectation(psi, barrier) == pytest.approx(expected, rel=1e-12)
