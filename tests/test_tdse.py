"""Propagator checks: analytic free motion, unitarity, reversibility, a
momentum-resolved transmission oracle through a thin barrier, and a sparse
Crank-Nicolson oracle across the periodic wrap."""

from dataclasses import replace
from math import factorial

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from conftest import SMALL_SCENARIO, patch_steps
from weaktunnel import tdse
from weaktunnel.core import (BarrierSpec, Grid, WaveFunction, gaussian_packet,
                             region_projector)
from weaktunnel.errors import ConfigError, EdgeDensityError, SchemeInstabilityError
from weaktunnel.scatter import scattering_amplitudes
from weaktunnel.tdse import (EDGE_CELLS, STENCIL_HALF_WIDTH, PropagatorConfig,
                             energy_expectation, propagate, propagate_backward,
                             propagate_with_source)

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
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            PropagatorConfig(dt=0.1, n_steps=10, record_times=(t,))
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=-0.01, n_steps=100)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            PropagatorConfig(dt=dt, n_steps=100)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=-1)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, n_steps=100, scheme="leapfrog")


def test_edge_density_guard_fires():
    psi = gaussian_packet(FREE_GRID, 80.0, 6.0, 1.0)
    cfg = PropagatorConfig(dt=0.01, n_steps=6000, record_times=(20.0, 60.0))
    with pytest.raises(EdgeDensityError):
        propagate(psi, cfg)


@pytest.mark.parametrize("inside, outside", [(1, EDGE_CELLS), (-2, -1 - EDGE_CELLS)])
def test_edge_guard_watches_the_outermost_cells_at_step_zero(inside, outside):
    """The guard reads the EDGE_CELLS cells at each end before the first step."""
    cfg = PropagatorConfig(dt=0.01, n_steps=0)
    amp = np.zeros(FREE_GRID.n, dtype=np.complex128)
    amp[inside] = 1.0
    with pytest.raises(EdgeDensityError, match=r"t=0\.0;"):
        propagate(WaveFunction(FREE_GRID, amp), cfg)
    amp = np.zeros(FREE_GRID.n, dtype=np.complex128)
    amp[outside] = 1.0
    (snap,) = propagate(WaveFunction(FREE_GRID, amp), cfg)
    assert np.array_equal(snap.psi.amp, amp)


def test_edge_guard_catches_wrap_around_between_records():
    """A packet that crosses the periodic boundary and comes back near its
    start before the only record must still trip the edge guard."""
    grid = Grid.from_domain(-64.0, 64.0, 512)
    psi = gaussian_packet(grid, 0.0, 4.0, 3.0)
    cfg = PropagatorConfig(dt=0.01, n_steps=4267)
    with pytest.raises(EdgeDensityError, match="t=12.91"):
        propagate(psi, cfg)


@pytest.mark.parametrize("norm_sq", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("factor, trips", [(0.5, False), (2.0, True)])
def test_edge_guard_reads_absolute_weight_whatever_the_norm(norm_sq, factor, trips):
    """A state whose edge cells hold factor * EDGE_PROBABILITY_LIMIT of
    absolute probability trips the guard at step 0 exactly when factor > 1,
    whether its norm^2 is 1e-6 (relative edge weight up to 1e-2) or 1e6."""
    bulk = gaussian_packet(FREE_GRID, 0.0, 4.0, 1.0).amp * np.sqrt(norm_sq)
    amp = bulk.astype(np.complex128)
    amp[0] = np.sqrt(factor * tdse.EDGE_PROBABILITY_LIMIT / FREE_GRID.dx)
    psi = WaveFunction(FREE_GRID, amp)
    cfg = PropagatorConfig(dt=0.01, n_steps=0)
    if trips:
        with pytest.raises(EdgeDensityError, match=r"t=0\.0;"):
            propagate(psi, cfg)
    else:
        (snap,) = propagate(psi, cfg)
        assert np.array_equal(snap.psi.amp, amp)


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


def sparse_crank_nicolson(psi, barrier, dt, n_steps):
    """Oracle: the periodic 16th-order Crank-Nicolson step as a sparse matrix
    pair, (1 + i H dt/2) x = (1 - i H dt/2) b solved by SuperLU."""
    grid = psi.grid
    n, m = grid.n, STENCIL_HALF_WIDTH
    coeff = np.zeros(2 * m + 1)
    for j in range(1, m + 1):
        coeff[m + j] = coeff[m - j] = ((-1) ** (j + 1) * 2.0 * factorial(m) ** 2
                                       / (j * j * factorial(m - j) * factorial(m + j)))
    coeff[m] = -2.0 * np.sum(coeff[m + 1:])
    idx = np.arange(n)
    rows = np.tile(idx, 2 * m + 1)
    cols = ((idx[None, :] + np.arange(-m, m + 1)[:, None]) % n).ravel()
    lap = scipy.sparse.csr_matrix((np.repeat(coeff, n) / grid.dx**2, (rows, cols)),
                                  shape=(n, n))
    h = -0.5 * lap + scipy.sparse.diags(barrier.potential(grid))
    eye = scipy.sparse.identity(n, format="csr")
    rhs = (eye - 0.5j * dt * h).tocsr()
    solve = scipy.sparse.linalg.splu((eye + 0.5j * dt * h).tocsc()).solve
    amp = psi.amp.astype(np.complex128)
    for _ in range(n_steps):
        amp = solve(rhs @ amp)
    return amp


def assert_matches_sparse_oracle(run, sign, barrier):
    """Step a packet centred on the wrap point 200 times at dt = 0.02, 0.5
    and 5 and compare each final state with the sparse oracle's.  The packet
    sits on the domain edge, so the caller lifts the edge guard."""
    grid = SMALL_SCENARIO.grid()
    centred = gaussian_packet(grid, 0.0, 4.0, 1.0)
    psi = WaveFunction(grid, np.roll(centred.amp, grid.n // 2))
    n_steps = 200
    for dt in (0.02, 0.5, 5.0):
        cfg = PropagatorConfig(dt=dt, n_steps=n_steps, scheme="implicit-fd")
        (_, final), = run(psi, cfg, barrier)
        expected = sparse_crank_nicolson(psi, barrier, sign * dt, n_steps)
        l2 = np.sqrt(np.sum(np.abs(final.amp - expected) ** 2) * grid.dx)
        assert l2 <= 1e-12, f"dt={dt}: L2 gap {l2:.3e}"


@pytest.mark.parametrize("run, sign", [(propagate, 1.0), (propagate_backward, -1.0)])
def test_implicit_fd_matches_sparse_oracle_across_the_periodic_wrap(run, sign, monkeypatch):
    """A packet centred on the wrap point puts its weight on the stencil
    entries that wrap around the periodic boundary, which the circulant FFT
    solve carries exactly.  A stiffer step spreads the barrier's Woodbury
    correction over more rows; each dt is checked against the full periodic
    operator."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    assert_matches_sparse_oracle(run, sign, SMALL_SCENARIO.barrier())


@pytest.mark.parametrize("run, sign", [(propagate, 1.0), (propagate_backward, -1.0)])
@pytest.mark.parametrize("barrier", [
    BarrierSpec([]),
    BarrierSpec([(-256.0, -250.0, 1.5), (-3.0, 3.0, -0.7), (250.0, 256.0, 0.8)]),
    BarrierSpec([(-60.0, 60.0, 0.3)]),
], ids=["free", "wrap-and-well", "240-cells"])
def test_implicit_fd_woodbury_matches_sparse_oracle(run, sign, barrier, monkeypatch):
    """The barrier-cell Woodbury correction against the sparse oracle: no
    cells (the circulant solve alone), cells on both sides of the wrap point
    beside a well, and a 240-cell barrier."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    assert_matches_sparse_oracle(run, sign, barrier)


def test_implicit_fd_transmit_probability_is_pinned():
    """Forward-leg transmit probability of the bench trace-cn scenario,
    recorded from the earlier sparse-LU Crank-Nicolson step; the circulant
    FFT solve sits 1.1e-15 relative away from it."""
    cfg = replace(SMALL_SCENARIO, dt=0.02, n_steps=1750, scheme="implicit-fd")
    grid = cfg.grid()
    (_, final), = propagate(cfg.packet(), cfg.propagator(record_times=()), cfg.barrier())
    transmitted = region_projector(grid, cfg.transmit_cut(), grid.x_max).apply(final)
    assert transmitted.norm() ** 2 == pytest.approx(0.0023647107239550924, rel=1e-9)


def test_implicit_fd_rejects_grids_too_small_for_the_stencil(monkeypatch):
    """At n <= 16 the periodic stencil's +8 and -8 entries wrap onto the same
    column, so the operator would lose a term."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    grid = Grid.from_domain(-8.0, 8.0, 2 * STENCIL_HALF_WIDTH)
    psi = WaveFunction(grid, np.exp(-grid.x**2 / 8.0))
    cfg = PropagatorConfig(dt=0.01, n_steps=1, scheme="implicit-fd")
    with pytest.raises(ConfigError, match="more than 16 grid points"):
        propagate(psi, cfg)
    propagate(psi, replace(cfg, scheme="spectral-split-step"))


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_stacked_step_matches_row_by_row_steps(scheme):
    """Two rows stepped as one stack equal each row stepped alone."""
    grid = SMALL_SCENARIO.grid()
    v = SMALL_SCENARIO.barrier().potential(grid)
    stack = np.array([gaussian_packet(grid, -20.0, 4.0, 1.0).amp,
                      gaussian_packet(grid, 3.0, 6.0, -0.5).amp])
    stacked = tdse._make_stepper(scheme, grid, v, 0.02)
    singles = [tdse._make_stepper(scheme, grid, v, 0.02) for _ in stack]
    rows = [stack[r:r + 1] for r in range(2)]
    for _ in range(3):
        stack = stacked.step(stack)
        rows = [single.step(row) for single, row in zip(singles, rows)]
    expected = np.concatenate([single.state(row) for single, row in zip(singles, rows)])
    got = stacked.state(stack)
    assert got.shape == (2, grid.n)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_source_row_collects_the_weighted_region_history(scheme, monkeypatch):
    """The source row at the duration is sum_j w_j U(T - t_j) mask psi(t_j),
    rebuilt here from one standalone leg per record."""
    psi = free_packet(k0=1.0, x0=-10.0)
    mask = (FREE_GRID.x >= -5.0) & (FREE_GRID.x < 5.0)
    cfg = PropagatorConfig(dt=0.01, n_steps=1000, scheme=scheme,
                           record_times=(0.0, 4.0, 10.0))
    weights = (0.5, -2.0, 3.0)
    snaps, phi = propagate_with_source(psi, cfg, None, mask, weights)
    assert [s.t for s in snaps] == [0.0, 4.0, 10.0]
    for snap, plain in zip(snaps, propagate(psi, cfg), strict=True):
        assert np.array_equal(snap.psi.amp, plain.psi.amp)
    expected = np.zeros(FREE_GRID.n, dtype=np.complex128)
    # the guards watch psi alone, not the source row, so the oracle's legs
    # from the masked states run unguarded too
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    for w, (t, state) in zip(weights, snaps):
        rest = replace(cfg, n_steps=round((cfg.duration - t) / cfg.dt), record_times=())
        (_, moved), = propagate(WaveFunction(FREE_GRID, w * np.where(mask, state.amp, 0.0)),
                                rest)
        expected += moved.amp
    assert np.max(np.abs(phi.amp - expected)) <= 1e-12 * np.max(np.abs(expected))
    with pytest.raises(ConfigError):
        propagate_with_source(psi, cfg, None, mask, weights[:2])


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_a_leg_stops_at_its_last_record(monkeypatch, scheme):
    """A leg whose records end at 0.6 of a 1.0 run takes 60 steps, not 100,
    backward, forward, and with a source row, whose phi is read at 0.6."""
    steps = []
    patch_steps(monkeypatch, lambda x: steps.append(1))
    psi = free_packet()
    cfg = PropagatorConfig(dt=0.01, n_steps=100, scheme=scheme, record_times=(0.2, 0.6))
    snaps = propagate_backward(psi, cfg)
    assert len(steps) == 60
    assert [s.t for s in snaps] == [0.2, 0.6]
    steps.clear()
    propagate(psi, cfg)
    assert len(steps) == 60
    steps.clear()
    mask = np.ones(FREE_GRID.n, dtype=bool)
    propagate_with_source(psi, cfg, None, mask, (1.0, 1.0))
    assert len(steps) == 60


@pytest.mark.parametrize("cell, error, message", [
    (0, EdgeDensityError, r"probability nan .* at t=0\.01;"),
    (FREE_GRID.n // 2, SchemeInstabilityError, "norm drifted by nan after 1 steps"),
])
def test_nan_after_the_first_step_trips_a_guard(monkeypatch, cell, error, message):
    """NaN compares false with every limit, so each guard fails on it: a NaN
    in an edge cell trips the edge guard, one inside the domain the norm
    guard at the record after the step."""
    def poison(x):
        x[0, cell] = np.nan

    patch_steps(monkeypatch, poison)
    cfg = PropagatorConfig(dt=0.01, n_steps=10, record_times=(0.01, 0.1))
    with pytest.raises(error, match=message):
        propagate(free_packet(), cfg)


def test_non_finite_initial_state_is_rejected():
    amp = free_packet().amp.copy()
    amp[FREE_GRID.n // 2] = np.inf
    cfg = PropagatorConfig(dt=0.01, n_steps=10)
    with pytest.raises(ConfigError, match="non-finite"):
        propagate(WaveFunction(FREE_GRID, amp), cfg)
