"""Grids, packets, projectors, and spin algebra."""

import numpy as np
import pytest

from weaktunnel.core import (BarrierSpec, Grid, RegionProjector, gaussian_packet,
                             spin_eigenstate, spin_ops)
from weaktunnel.errors import ConfigError

from conftest import density, expectation_x, region_probability, variance_x


def expectation_k(psi):
    """<k> of a state from its FFT weights."""
    w = np.abs(np.fft.fft(psi.amp)) ** 2
    return float(np.sum(w * psi.grid.k) / np.sum(w))


def test_grid_from_domain():
    g = Grid.from_domain(-200.0, 200.0, 4096)
    assert g.n == 4096
    assert g.x[0] == -200.0
    assert g.x_max == pytest.approx(200.0)
    assert g.dx == pytest.approx(400.0 / 4096)
    # half-open domain: the last point is one cell short of x_max
    assert g.x[-1] == pytest.approx(200.0 - g.dx)


def test_grid_requires_power_of_two():
    with pytest.raises(ConfigError):
        Grid.from_domain(0.0, 10.0, 1000)
    with pytest.raises(ConfigError):
        Grid.from_domain(0.0, 10.0, 1)


def test_grid_wavenumbers_match_fft_convention():
    g = Grid.from_domain(-10.0, 10.0, 64)
    assert np.allclose(g.k, 2 * np.pi * np.fft.fftfreq(64, d=g.dx))


def test_gaussian_packet_moments():
    g = Grid.from_domain(-100.0, 100.0, 2048)
    psi = gaussian_packet(g, x0=-30.0, sigma=5.0, k0=0.8)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    assert expectation_x(psi) == pytest.approx(-30.0, abs=1e-9)
    assert np.sqrt(variance_x(psi)) == pytest.approx(5.0, rel=1e-9)
    assert expectation_k(psi) == pytest.approx(0.8, abs=1e-9)


def test_wavefunction_inner_and_density():
    g = Grid.from_domain(-50.0, 50.0, 512)
    a = gaussian_packet(g, 0.0, 3.0, 0.0)
    b = gaussian_packet(g, 4.0, 3.0, 0.0)
    # continuum overlap of equal-width displaced Gaussians
    assert a.inner(b).real == pytest.approx(np.exp(-(4.0**2) / (8 * 3.0**2)), rel=1e-9)
    assert a.inner(a).real == pytest.approx(1.0, abs=1e-12)
    assert np.sum(density(a)) * g.dx == pytest.approx(1.0, abs=1e-12)


def test_region_projector_idempotent_and_complete():
    g = Grid.from_domain(-50.0, 50.0, 512)
    psi = gaussian_packet(g, 5.0, 4.0, 0.3)
    proj = RegionProjector(g, 0.0, 50.0)
    once = proj.apply(psi)
    twice = proj.apply(once)
    assert np.array_equal(once.amp, twice.amp)
    left = RegionProjector(g, -50.0, 0.0)
    total = region_probability(left, psi) + region_probability(proj, psi)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_region_projector_rejects_empty():
    g = Grid.from_domain(-50.0, 50.0, 512)
    with pytest.raises(ConfigError):
        RegionProjector(g, 10.0, 10.0)
    # a < b but no cell inside: beyond the domain, or between two cells
    # (x = 0 and x = dx = 0.195...)
    for a, b in ((60.0, 70.0), (0.01, 0.1)):
        with pytest.raises(ConfigError, match="holds no grid cell"):
            RegionProjector(g, a, b)


def test_barrier_potential_covers_half_open_cells():
    g = Grid.from_domain(-10.0, 10.0, 128)
    barrier = BarrierSpec.rectangular(-5.0, 5.0, 2.5)
    v = barrier.potential(g)
    inside = (g.x >= -5.0) & (g.x < 5.0)
    assert np.all(v[inside] == 2.5)
    assert np.all(v[~inside] == 0.0)
    assert barrier.x_left == -5.0 and barrier.x_right == 5.0
    assert barrier.segments == ((-5.0, 5.0, 2.5),)


def test_barrier_rejects_bad_segments():
    with pytest.raises(ConfigError):
        BarrierSpec.rectangular(5.0, -5.0, 1.0)
    with pytest.raises(ConfigError):
        BarrierSpec([(0.0, 1.0)])


def test_spin_half_matches_pauli_over_two():
    ops = spin_ops(0.5)
    assert np.allclose(ops.sz, np.array([[0.5, 0], [0, -0.5]]))
    assert np.allclose(ops.sx, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(ops.sy, np.array([[0, -0.5j], [0.5j, 0]]))


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
def test_spin_commutators_and_casimir(j):
    ops = spin_ops(j)
    comm = ops.sx @ ops.sy - ops.sy @ ops.sx
    assert np.allclose(comm, 1j * ops.sz, atol=1e-12)
    casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    dim = round(2 * j) + 1
    assert np.allclose(casimir, j * (j + 1) * np.eye(dim), atol=1e-12)


def test_spin_eigenstate_picks_requested_branch():
    ops = spin_ops(0.5)
    up = spin_eigenstate(ops.sz, +0.5)
    assert np.allclose(ops.sz @ up, 0.5 * up)
    sideways = spin_eigenstate(ops.sx, +0.5)
    assert np.vdot(sideways, ops.sx @ sideways).real == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ConfigError):
        spin_eigenstate(ops.sz, 0.3)


def test_spin_ops_reject_bad_j():
    with pytest.raises(ConfigError):
        spin_ops(0.3)
    with pytest.raises(ConfigError):
        spin_ops(0.0)
