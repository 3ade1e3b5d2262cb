"""Propagator checks: analytic free motion, unitarity, reversibility,
time-reversal symmetry of the transition amplitude, a momentum-resolved transmission oracle through a thin barrier, and a sparse
Crank-Nicolson oracle across the periodic wrap."""

from dataclasses import fields, replace
from functools import partial
from math import factorial

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from conftest import SMALL_SCENARIO, density, expectation_x, patch_steps, variance_x
from weaktunnel import tdse
from weaktunnel.config import DEFAULT_SCENARIO
from weaktunnel.core import (BarrierSpec, Grid, RegionProjector, WaveFunction,
                             gaussian_packet)
from weaktunnel.errors import ConfigError, EdgeDensityError, SchemeInstabilityError
from weaktunnel.scatter import scattering_amplitudes
from weaktunnel.tdse import (EDGE_CELLS, SCHEMES, STENCIL_HALF_WIDTH, PropagatorConfig,
                             propagate, propagate_backward, propagate_with_source)

FREE_GRID = Grid.from_domain(-128.0, 128.0, 1024)
# 48 cells of FREE_GRID: too many for either scheme's Fourier-space rows, so
# both step through the FFT pair
FFT_PAIR_BARRIER = BarrierSpec.rectangular(-6.0, 6.0, 1.0)
# the sparse oracle's barriers on the SMALL_SCENARIO grid besides its own
ORACLE_BARRIERS = {
    "free": BarrierSpec([]),
    "wrap-and-well": BarrierSpec([(-256.0, -250.0, 1.5), (-3.0, 3.0, -0.7),
                                  (250.0, 256.0, 0.8)]),
    "240-cells": BarrierSpec([(-60.0, 60.0, 0.3)]),
}
# each scheme's stepper builder: its FFT-pair form at k = 0, else its
# Fourier-space form in blocks of k steps
BUILDERS = {"spectral-split-step": tdse._split_step, "implicit-fd": tdse._crank_nicolson}


def free_packet(k0=0.5, x0=-40.0, sigma=6.0):
    return gaussian_packet(FREE_GRID, x0, sigma, k0)


def energy_expectation(psi, barrier=None):
    """<H> from the spectral kinetic operator plus the grid potential."""
    grid = psi.grid
    f = np.fft.fft(psi.amp)
    kinetic = np.sum(0.5 * grid.k**2 * np.abs(f) ** 2) * grid.dx / grid.n
    v = barrier.potential(grid) if barrier is not None else np.zeros(grid.n)
    potential = np.sum(v * density(psi)) * grid.dx
    return float((kinetic + potential) / psi.norm() ** 2)


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_free_packet_follows_analytic_dispersion(scheme):
    x0, sigma, k0, t = -40.0, 6.0, 0.5, 60.0
    psi = free_packet(k0, x0, sigma)
    cfg = PropagatorConfig(dt=0.01, record_steps=(6000,), scheme=scheme)
    final, = propagate(psi, cfg)
    assert expectation_x(final) == pytest.approx(x0 + k0 * t, rel=1e-4)
    var_t = sigma**2 + t**2 / (4.0 * sigma**2)
    assert variance_x(final) == pytest.approx(var_t, rel=1e-4)


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_norm_drift_stays_below_budget(scheme):
    psi = free_packet()
    barrier = BarrierSpec.rectangular(-2.0, 2.0, 1.0)
    cfg = PropagatorConfig(dt=0.002, record_steps=(10_000,), scheme=scheme)
    final, = propagate(psi, cfg, barrier)
    assert abs(final.norm() - 1.0) <= 1e-8


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_forward_then_backward_recovers_initial_state(scheme):
    psi = free_packet(k0=0.8)
    barrier = BarrierSpec.rectangular(-2.0, 2.0, 1.0)
    cfg = PropagatorConfig(dt=0.005, record_steps=(4000,), scheme=scheme)
    final, = propagate(psi, cfg, barrier)
    back, = propagate_backward(final, cfg, barrier)
    l2 = np.sqrt(np.sum(np.abs(back.amp - psi.amp) ** 2) * FREE_GRID.dx)
    assert l2 < 1e-9


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_transition_amplitude_is_time_reversal_symmetric(scheme):
    """Conjugating and swapping the boundary states leaves the amplitude
    unchanged: <f|U|i> = <conj i|U|conj f> for a real potential."""
    cfg = replace(SMALL_SCENARIO, scheme=scheme)
    barrier = cfg.barrier()
    psi = cfg.packet()
    target = gaussian_packet(cfg.grid(), 15.0, 4.0, cfg.k0)
    end = cfg.propagator((cfg.n_steps,))
    evolved, = propagate(psi, end, barrier)
    flipped_evolved, = propagate(WaveFunction(cfg.grid(), np.conj(target.amp)), end, barrier)
    amplitude = target.inner(evolved)
    flipped = WaveFunction(cfg.grid(), np.conj(psi.amp)).inner(flipped_evolved)
    assert abs(flipped - amplitude) <= 1e-9 * abs(amplitude)


def test_time_zero_record_is_the_initial_state():
    psi = free_packet()
    cfg = PropagatorConfig(dt=0.01, record_steps=(0, 50, 100))
    states = propagate(psi, cfg)
    assert cfg.record_times == (0.0, 0.5, 1.0)
    assert len(states) == 3
    assert np.array_equal(states[0].amp, psi.amp)


def test_record_time_validation():
    """A leg's one time input is its record steps: at least one, each a
    non-negative integer, strictly increasing.  A float, a string, a bool or
    NaN names no step; numpy integers do and are stored as int.  A bare step
    or None is no list of steps."""
    for steps in [(), (-1,), (2.5,), ("3",), (True,), (float("nan"),), (3, 3), (5, 2),
                  5, None, np.int64(5)]:
        with pytest.raises(ConfigError):
            PropagatorConfig(dt=0.01, record_steps=steps)
    for dt in (0.0, -0.01, float("nan")):
        with pytest.raises(ConfigError):
            PropagatorConfig(dt=dt, record_steps=(10,))
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            PropagatorConfig(dt=dt, record_steps=(10,))
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.01, record_steps=(10,), scheme="leapfrog")

    cfg = PropagatorConfig(dt=0.01, record_steps=tuple(np.array([0, 3, 7])))
    assert cfg.record_steps == (0, 3, 7)
    assert all(type(j) is int for j in cfg.record_steps)
    assert (cfg.n_steps, cfg.duration, cfg.record_times) == (7, 7 * 0.01, (0.0, 0.03, 0.07))
    # n_steps, duration and record_times derive from the steps; none is set
    assert [f.name for f in fields(PropagatorConfig)] == ["dt", "record_steps", "scheme"]
    with pytest.raises(TypeError):
        PropagatorConfig(dt=0.01, record_steps=(10,), n_steps=10)


def test_edge_density_guard_fires():
    psi = gaussian_packet(FREE_GRID, 80.0, 6.0, 1.0)
    cfg = PropagatorConfig(dt=0.01, record_steps=(2000, 6000))
    with pytest.raises(EdgeDensityError):
        propagate(psi, cfg)


@pytest.mark.parametrize("inside, outside", [(1, EDGE_CELLS), (-2, -1 - EDGE_CELLS)])
def test_edge_guard_watches_the_outermost_cells_at_step_zero(inside, outside):
    """The guard reads the EDGE_CELLS cells at each end before the first step."""
    cfg = PropagatorConfig(dt=0.01, record_steps=(0,))
    amp = np.zeros(FREE_GRID.n, dtype=np.complex128)
    amp[inside] = 1.0
    with pytest.raises(EdgeDensityError, match=r"t=0\.0;"):
        propagate(WaveFunction(FREE_GRID, amp), cfg)
    amp = np.zeros(FREE_GRID.n, dtype=np.complex128)
    amp[outside] = 1.0
    (state,) = propagate(WaveFunction(FREE_GRID, amp), cfg)
    assert np.array_equal(state.amp, amp)


def test_edge_guard_catches_wrap_around_between_records(monkeypatch):
    """A packet that crosses the periodic boundary and comes back near its
    start before the last record must still trip the edge guard, forward
    and backward.  The finite-difference stencil disperses the packet a
    little differently, so Crank-Nicolson trips one step later than
    split-step (steps 1292 and 1300 against 1291 and 1299).  Each scheme
    trips at the same step whether it steps through the FFT pair or in
    Fourier space, where the guard reads the edge cells as inverse-DFT rows
    of a block of k steps (24 on this grid for both).  A block starts at
    each record, so a first record at trip - k puts the trip step last in
    its block, one at trip - k + 1 puts it second to last, and the lone last
    record puts it at position 19 and 20 (forward) and 3 and 4 (backward)
    of its block."""
    grid = Grid.from_domain(-64.0, 64.0, 512)
    psi = gaussian_packet(grid, 0.0, 4.0, 3.0)
    cfg = PropagatorConfig(dt=0.01, record_steps=(4267,))
    k = 24
    for scheme in SCHEMES:
        stepper = tdse._make_stepper(scheme, grid, np.zeros(grid.n), cfg.dt)
        assert type(stepper) is tdse._FourierSpace and stepper.k == k
    legs = [(propagate, {"spectral-split-step": (1291, r"t=12\.91;"),
                         "implicit-fd": (1292, r"t=12\.92;")}),
            (propagate_backward, {"spectral-split-step": (1299, r"t=12\.99;"),
                                  "implicit-fd": (1300, r"t=13\.0;")})]
    for run, trips in legs:
        for scheme, (trip, at) in trips.items():
            for first in (None, trip - k, trip - k + 1):
                steps = (4267,) if first is None else (first, 4267)
                with pytest.raises(EdgeDensityError, match=at):
                    run(psi, replace(cfg, record_steps=steps, scheme=scheme))
    monkeypatch.setattr(tdse, "DENSE_ROWS_BYTES", 0)
    for run, trips in legs:
        for scheme, (_, at) in trips.items():
            with pytest.raises(EdgeDensityError, match=at):
                run(psi, replace(cfg, scheme=scheme))


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
    cfg = PropagatorConfig(dt=0.01, record_steps=(0,))
    if trips:
        with pytest.raises(EdgeDensityError, match=r"t=0\.0;"):
            propagate(psi, cfg)
    else:
        (state,) = propagate(psi, cfg)
        assert np.array_equal(state.amp, amp)


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
    cfg = PropagatorConfig(dt=0.0025, record_steps=(48_000,))  # records only t=120
    final, = propagate(psi, cfg, barrier)

    measured = float(np.sum(density(final)[grid.x >= 1.0]) * grid.dx)

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
    inside = float(np.sum(density(psi)[(grid.x >= -4.0) & (grid.x < 4.0)]) * grid.dx)
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


def assert_matches_sparse_oracle(run, sign, barrier, stepper):
    """Step a packet centred on the wrap point 200 times at dt = 0.02, 0.5
    and 5 and compare each final state with the sparse oracle's.  The packet
    sits on the domain edge, so the caller lifts the edge guard."""
    grid = SMALL_SCENARIO.grid()
    centred = gaussian_packet(grid, 0.0, 4.0, 1.0)
    psi = WaveFunction(grid, np.roll(centred.amp, grid.n // 2))
    n_steps = 200
    for dt in (0.02, 0.5, 5.0):
        cfg = PropagatorConfig(dt=dt, record_steps=(n_steps,), scheme="implicit-fd")
        made = tdse._make_stepper(cfg.scheme, grid, barrier.potential(grid), sign * dt)
        assert isinstance(made, stepper)
        final, = run(psi, cfg, barrier)
        expected = sparse_crank_nicolson(psi, barrier, sign * dt, n_steps)
        l2 = np.sqrt(np.sum(np.abs(final.amp - expected) ** 2) * grid.dx)
        assert l2 <= 1e-12, f"dt={dt}: L2 gap {l2:.3e}"


@pytest.mark.parametrize("run, sign", [(propagate, 1.0), (propagate_backward, -1.0)])
def test_implicit_fd_matches_sparse_oracle_across_the_periodic_wrap(run, sign, monkeypatch):
    """A packet centred on the wrap point puts its weight on the stencil
    entries that wrap around the periodic boundary, which the circulant
    solve carries exactly.  A stiffer step spreads the barrier's Woodbury
    correction over more rows; each dt is checked against the full periodic
    operator.  The 8-cell barrier steps in Fourier space."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    assert_matches_sparse_oracle(run, sign, SMALL_SCENARIO.barrier(),
                                 tdse._FourierSpace)


@pytest.mark.parametrize("run, sign", [(propagate, 1.0), (propagate_backward, -1.0)])
@pytest.mark.parametrize("barrier, budget, stepper", [
    (ORACLE_BARRIERS["free"], tdse.DENSE_ROWS_BYTES, tdse._FourierSpace),
    (ORACLE_BARRIERS["wrap-and-well"], tdse.DENSE_ROWS_BYTES, tdse._FourierSpace),
    (ORACLE_BARRIERS["wrap-and-well"], 0, tdse._CrankNicolson),
    (ORACLE_BARRIERS["240-cells"], tdse.DENSE_ROWS_BYTES, tdse._CrankNicolson),
], ids=["free", "wrap-and-well", "wrap-and-well-fft-pair", "240-cells"])
def test_implicit_fd_woodbury_matches_sparse_oracle(run, sign, barrier, budget, stepper,
                                                    monkeypatch):
    """The barrier-cell Woodbury correction against the sparse oracle: no
    cells (the circulant solve alone) and cells on both sides of the wrap
    point beside a well (36 cells), both in Fourier space, the latter also
    through the FFT pair with the dense-row budget at 0, and a 240-cell
    barrier through the FFT pair."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    monkeypatch.setattr(tdse, "DENSE_ROWS_BYTES", budget)
    assert_matches_sparse_oracle(run, sign, barrier, stepper)


@pytest.mark.parametrize("grid, barrier, k", [
    (SMALL_SCENARIO.grid(), SMALL_SCENARIO.barrier(), 4),
    (FREE_GRID, None, 12),
    (FREE_GRID, FFT_PAIR_BARRIER, 0),
    (DEFAULT_SCENARIO.grid(), DEFAULT_SCENARIO.barrier(), 0),
    (SMALL_SCENARIO.grid(), ORACLE_BARRIERS["wrap-and-well"], 1),
    (SMALL_SCENARIO.grid(), ORACLE_BARRIERS["240-cells"], 0),
    (Grid.from_domain(-1024.0, 1024.0, 4096), SMALL_SCENARIO.barrier(), 1),
], ids=["small-and-trace-cn", "free", "fft-pair-barrier", "default", "wrap-and-well",
        "240-cells", "n4096-8-cells"])
def test_implicit_fd_steps_in_fourier_space_while_its_rows_fit(grid, barrier, k):
    """Both schemes step in Fourier space in blocks of k steps, k the number
    of steps whose dense rows, 2m + 2 EDGE_CELLS of n complex entries each
    (m the barrier's cell count), fit DENSE_ROWS_BYTES (1.5 MiB), while k is
    at least 1, and through their FFT pair otherwise; both take the same
    form and the same k on every grid.

    - k=4: the 8 cells of the SMALL_SCENARIO barrier, the bench's trace-cn
      and tiny-split grid (n=1024, 384 KiB a step);
    - k=12: no cells at n=1024;
    - k=1: the oracle's 36 cells at n=1024 (1.25 MiB), and 8 cells at n=4096
      (1.5 MiB);
    - the FFT pair: the 48 cells of FFT_PAIR_BARRIER at n=1024 (1.6 MiB),
      the oracle's 240 cells, and the default scenario's 103 at n=4096 (13.4
      MiB).

    With 1.5 MiB, k=1 runs from 21 to 44 cells at n=1024 and from 3 to 8
    cells at n=4096, and the FFT pair beyond.  Measured on a 2-vCPU Xeon VM
    (a leg's step with its edge read, fastest of 11 rounds), at m=8, n=1024
    a Crank-Nicolson step took 16 us at k=1, 12 us at k=2 to 4 and 13 us at
    k=5 with one BLAS thread, and 27, 16, 12, 10 and 9 us at k=1 to 5 with
    two, against 32 and 36 us through the FFT pair; blocks past the cache
    gain nothing with one thread (k=2 was slower than k=1 at m=24).
    Crank-Nicolson's k=1 crossed its FFT pair (32-39 us at n=1024, 89-113
    us at n=4096) at about m=30 for n=1024 and m=13 for n=4096 with one
    BLAS thread; with two it was within 15% of the FFT pair from m=32 to 48
    at n=1024 and still led at m=16 for n=4096.  Split-step, timed in 31
    interleaved rounds of 200 steps, took 26-28 us a step through its FFT
    pair at n=1024 and 72 us at n=4096 with one BLAS thread or two; in
    Fourier space it took 12 and 8 us (one thread and two) at m=8 (k=4),
    15-18 us at m=16 (k=2), 33 and 29 us at m=32 and 41 and 31 us at m=40
    (k=1) at n=1024, and 56 and 46 us at m=8 (k=1) at n=4096, where k=1
    forced on 10 and 13 cells took 68 and 46 us and 93 and 53 us.  The
    one-thread crossovers are 1.1 and 2.1 MiB of rows a step, so no budget
    sits at both: this one puts 31 to 44 cells at n=1024 on k=1, up to 29%
    slower than the FFT pair with one thread for Crank-Nicolson and up to
    53% (13% with two) for split-step, and 9 to 11 cells at n=4096 on the
    FFT pair, about 10% slower with one thread and 60% with two for
    Crank-Nicolson, 5% and 36% for split-step.  A budget low enough for
    n=1024 would send 8 cells at n=4096 to the FFT pair, slower for both."""
    v = tdse._potential(grid, barrier)
    made = [tdse._make_stepper(scheme, grid, v, 0.02) for scheme in SCHEMES]
    if k:
        assert all(type(s) is tdse._FourierSpace and s.k == k for s in made)
    else:
        assert [type(s) for s in made] == [tdse._SplitStep, tdse._CrankNicolson]


def by_scheme(dts):
    """(scheme, dt, rows) cases over both schemes, one row and a stack of
    two; implicit-fd's ids are dt-rows, split-step's end in the scheme."""
    return [pytest.param(scheme, dt, rows, id=f"{dt}-{rows}" + (
                "" if scheme == "implicit-fd" else f"-{scheme}"))
            for scheme in SCHEMES for rows in (1, 2) for dt in dts]


@pytest.mark.parametrize("scheme, dt, rows", by_scheme([0.02, 0.5, 5.0, -0.02, -0.5, -5.0]))
def test_fourier_space_step_matches_the_fft_pair_step(scheme, dt, rows):
    """Each scheme's Fourier-space stepper against its FFT-pair one on the
    8-cell SMALL_SCENARIO barrier, forward and backward, one row and a stack
    of two, after 50 steps: 12 blocks of k=4 and one of 2.  The two sum the
    same step in a different order; their largest gap measured 2.2e-14 of
    the largest amplitude for Crank-Nicolson and 1.1e-14 for split-step,
    with one BLAS thread or two, bounded at 1e-13 and 2e-14."""
    grid = SMALL_SCENARIO.grid()
    v = SMALL_SCENARIO.barrier().potential(grid)
    amps = np.array([gaussian_packet(grid, -20.0, 4.0, 1.0).amp,
                     gaussian_packet(grid, 3.0, 6.0, -0.5).amp])[:rows]
    fourier = tdse._make_stepper(scheme, grid, v, dt)
    assert type(fourier) is tdse._FourierSpace and fourier.k == 4
    pair = BUILDERS[scheme](grid, v, dt, 0)
    z, _ = fourier.advance(fourier.carry(amps), 50)
    x, _ = pair.advance(pair.carry(amps), 50)
    bound = 1e-13 if scheme == "implicit-fd" else 2e-14
    assert np.max(np.abs(fourier.state(z) - pair.state(x))) <= bound * np.max(np.abs(x))


@pytest.mark.parametrize("scheme, dt, rows", by_scheme([0.02, 5.0, -0.02, -5.0]))
def test_fourier_space_rows_carry_their_barrier_and_edge_reads(scheme, dt, rows, monkeypatch):
    """A Fourier-space block of k steps from z_s reads every step's barrier
    and edge amplitudes from its dense rows in one product: Q M^i z_s, i =
    0 .. k-1, at the m barrier cells and E M^i z_s, i = 1 .. k, at the edge
    cells.  On the 8-cell SMALL_SCENARIO barrier, for each scheme, forward
    and backward, after 50 steps and right after a source feed into row 1
    of a stack of two, they equal the same steps taken one at a time: the
    barrier reads equal IFFT(z / eig) (Crank-Nicolson) or IFFT(z)
    (split-step) at the cells of each z along the one-step chain, a block
    of j steps, j = 1 .. k, ends on the state j single steps reach, and row
    0's edge weights equal those single steps', each the sum of |state|^2
    over the edge cells.  Checked at the budget's k=4 and at k=8.  Row 0 is
    a packet at rest on the wrap point, so its edge reads are not roundoff
    at any dt; the guard is lifted.  With one BLAS thread or two the largest
    gaps measured 7.0e-16 of the largest amplitude in the barrier reads,
    8.7e-16 in the states, and 7.3e-16 of the edge weight for
    Crank-Nicolson, against the bound 2e-15 for each, and 1.7e-15, 1.2e-15
    and 1.1e-15 for split-step, against 2.5e-15."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    grid = SMALL_SCENARIO.grid()
    n = grid.n
    v = SMALL_SCENARIO.barrier().potential(grid)
    eig = tdse._cayley(grid, v, dt)[0] if scheme == "implicit-fd" else 1.0
    cells, edges = np.flatnonzero(v), np.r_[:EDGE_CELLS, n - EDGE_CELLS:n]
    start = np.array([np.roll(gaussian_packet(grid, 0.0, 4.0, 0.0).amp, n // 2),
                      gaussian_packet(grid, -20.0, 4.0, 1.0).amp])[:rows]
    bound = 2e-15 if scheme == "implicit-fd" else 2.5e-15

    def assert_block_matches_single_steps(stepper, x):
        k, m = stepper.k, cells.size
        reads = np.array([stepper.r[:k * m] @ z for z in x]).reshape(rows, k, m)
        one, weights = x, []
        for j in range(1, k + 1):
            scale = np.max(np.abs(stepper.state(one)))
            assert np.max(np.abs(reads[:, j - 1] - np.fft.ifft(one / eig)[:, cells])) \
                <= bound * scale
            one, weight = stepper.advance(one, 1)
            state = stepper.state(one)
            weights.append(weight[0])
            assert weight[0] == pytest.approx(np.sum(np.abs(state[0, edges]) ** 2), rel=bound)
            block, block_weights = stepper.advance(x, j)
            assert np.max(np.abs(stepper.state(block) - state)) <= bound * np.max(np.abs(state))
            assert np.max(np.abs(block_weights - weights)) <= bound * max(weights)

    mask = (grid.x >= -5.0) & (grid.x < 5.0)
    for k in (4, 8):
        stepper = BUILDERS[scheme](grid, v, dt, k)
        x, _ = stepper.advance(stepper.carry(start), 50)
        assert_block_matches_single_steps(stepper, x)
        if rows == 2:
            stepper.feed(x, mask, 0.7, stepper.state(x[0]))
            assert_block_matches_single_steps(stepper, x)


def chebyshev_propagate(psi, v, t):
    """Oracle: e^{-iHt} psi for the grid Hamiltonian H = k^2/2 (spectral) +
    v, expanded once over the whole time t in Chebyshev polynomials of H
    mapped onto [-1, 1] (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)).  The series runs until its Bessel coefficients J_n(a t), a
    the half-width of H's spectrum, are far below roundoff."""
    grid = psi.grid
    kinetic = 0.5 * grid.k**2
    low, high = min(v.min(), 0.0), kinetic.max() + v.max()
    mid, half = 0.5 * (high + low), 0.5 * (high - low)

    def scaled(phi):
        return (np.fft.ifft(kinetic * np.fft.fft(phi)) + (v - mid) * phi) / half

    a = half * t
    coeff = scipy.special.jv(np.arange(int(a + 10 * a ** (1 / 3) + 40)), a)
    assert np.all(np.abs(coeff[-3:]) < 1e-20)
    prev = psi.amp.astype(np.complex128)
    cur = scaled(prev)
    out = coeff[0] * prev - 2j * coeff[1] * cur
    for n in range(2, coeff.size):
        prev, cur = cur, 2.0 * scaled(cur) - prev
        out += 2.0 * (-1j) ** n * coeff[n] * cur
    return np.exp(-1j * mid * t) * out


def test_split_step_transmit_probability_against_chebyshev_oracle():
    """The SMALL_SCENARIO (FAST) transmit probability that test_cli.py pins
    at rel 1e-6, from split-step at dt=0.001, against one Chebyshev
    expansion of the same grid Hamiltonian over the 35 time units.  The gap
    is the Strang step's: it measured 3.15e-7 relative at dt=0.001 (the
    split-step value is low), and 1.26e-6 at dt=0.002, 4.0 times as much,
    as a second-order step gives.  Both are bounded here 10% above their
    measured values."""
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    psi = cfg.packet()
    cut = RegionProjector(grid, cfg.transmit_cut(), grid.x_max)

    def transmitted(amp):
        return float(np.sum(np.abs(amp[cut.mask]) ** 2) * grid.dx)

    exact = chebyshev_propagate(psi, cfg.barrier().potential(grid), cfg.n_steps * cfg.dt)
    assert np.sum(np.abs(exact) ** 2) * grid.dx == pytest.approx(1.0, abs=1e-12)
    oracle = transmitted(exact)
    gaps = []
    for dt, bound in ((cfg.dt, 3.5e-7), (2 * cfg.dt, 1.4e-6)):
        leg = PropagatorConfig(dt=dt, record_steps=(round(cfg.n_steps * cfg.dt / dt),))
        final, = propagate(psi, leg, cfg.barrier())
        gaps.append(transmitted(final.amp) / oracle - 1.0)
        assert abs(gaps[-1]) <= bound
    assert gaps[1] / gaps[0] == pytest.approx(4.0, rel=0.05)


def test_implicit_fd_transmit_probability_is_pinned():
    """Forward-leg transmit probability of the bench trace-cn scenario,
    recorded from the earlier sparse-LU Crank-Nicolson step.  This 8-cell
    barrier steps in Fourier space in blocks of k=4 steps, which sit 7.4e-14
    relative away from it with one BLAS thread or two; one step at a time
    sat 8.3e-14 away and the FFT-pair step 4.6e-14."""
    cfg = replace(SMALL_SCENARIO, dt=0.02, n_steps=1750, scheme="implicit-fd")
    grid = cfg.grid()
    final, = propagate(cfg.packet(), cfg.propagator((cfg.n_steps,)), cfg.barrier())
    transmitted = RegionProjector(grid, cfg.transmit_cut(), grid.x_max).apply(final)
    assert transmitted.norm() ** 2 == pytest.approx(0.0023647107239550924, rel=1e-9)


def test_implicit_fd_rejects_grids_too_small_for_the_stencil(monkeypatch):
    """At n <= 16 the periodic stencil's +8 and -8 entries wrap onto the same
    column, so the operator would lose a term."""
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    grid = Grid.from_domain(-8.0, 8.0, 2 * STENCIL_HALF_WIDTH)
    psi = WaveFunction(grid, np.exp(-grid.x**2 / 8.0))
    cfg = PropagatorConfig(dt=0.01, record_steps=(1,), scheme="implicit-fd")
    with pytest.raises(ConfigError, match="more than 16 grid points"):
        propagate(psi, cfg)
    propagate(psi, replace(cfg, scheme="spectral-split-step"))


@pytest.mark.parametrize("make", [
    partial(tdse._make_stepper, "spectral-split-step"),
    partial(tdse._make_stepper, "implicit-fd"),
    partial(tdse._split_step, k=0),
    partial(tdse._crank_nicolson, k=0),
], ids=["spectral-split-step", "implicit-fd", "spectral-split-step-fft-pair",
        "implicit-fd-fft-pair"])
def test_stacked_step_matches_row_by_row_steps(make):
    """Two rows stepped as one stack equal each row stepped alone, for each
    stepper (both schemes step this barrier in Fourier space, in blocks of
    k=4: a leg of 9 steps as three advances of 3 takes blocks of 3), and an
    advance leaves its input as it was, the FFT-pair split step's in-place
    steps included.  Each row starts as its own copy, and both rows step
    through one other stepper, one after the other, so a stepper carries
    nothing from one advance into the next: the gaps measured 0."""
    def step(stepper, x):
        given = x.copy()
        y, _ = stepper.advance(x, 3)
        assert np.array_equal(x, given)
        return y

    grid = SMALL_SCENARIO.grid()
    v = SMALL_SCENARIO.barrier().potential(grid)
    stacked, single = make(grid, v, 0.02), make(grid, v, 0.02)
    stack = stacked.carry(np.array([gaussian_packet(grid, -20.0, 4.0, 1.0).amp,
                                    gaussian_packet(grid, 3.0, 6.0, -0.5).amp]))
    rows = [stack[r:r + 1].copy() for r in range(2)]
    for _ in range(3):
        stack = step(stacked, stack)
        rows = [step(single, row) for row in rows]
    expected = np.concatenate([single.state(row) for row in rows])
    got = stacked.state(stack)
    assert got.shape == (2, grid.n)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("scheme, barrier", [
    pytest.param(scheme, barrier, id=scheme + ("" if barrier is None else "-fft-pair"))
    for barrier in (None, FFT_PAIR_BARRIER) for scheme in SCHEMES])
def test_source_row_collects_the_weighted_region_history(scheme, barrier, monkeypatch):
    """The source row at the duration is sum_j w_j U(T - t_j) mask psi(t_j),
    rebuilt here from one standalone leg per record: with no barrier in
    Fourier space, and across FFT_PAIR_BARRIER through each scheme's FFT
    pair, whose feed adds the masked state to grid amplitudes."""
    psi = free_packet(k0=1.0, x0=-10.0)
    mask = (FREE_GRID.x >= -5.0) & (FREE_GRID.x < 5.0)
    cfg = PropagatorConfig(dt=0.01, record_steps=(0, 400, 1000), scheme=scheme)
    weights = (0.5, -2.0, 3.0)
    states, phi = propagate_with_source(psi, cfg, barrier, mask, weights)
    for state, plain in zip(states, propagate(psi, cfg, barrier), strict=True):
        assert np.array_equal(state.amp, plain.amp)
    expected = np.zeros(FREE_GRID.n, dtype=np.complex128)
    # the guards watch psi alone, not the source row, so the oracle's legs
    # from the masked states run unguarded too
    monkeypatch.setattr(tdse, "EDGE_PROBABILITY_LIMIT", np.inf)
    for w, j, state in zip(weights, cfg.record_steps, states):
        rest = replace(cfg, record_steps=(cfg.n_steps - j,))
        moved, = propagate(WaveFunction(FREE_GRID, w * np.where(mask, state.amp, 0.0)), rest,
                           barrier)
        expected += moved.amp
    assert np.max(np.abs(phi.amp - expected)) <= 1e-12 * np.max(np.abs(expected))
    with pytest.raises(ConfigError):
        propagate_with_source(psi, cfg, None, mask, weights[:2])
    with pytest.raises(ConfigError):
        propagate_with_source(psi, cfg, None, mask[::2], weights)


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_a_leg_stops_at_its_last_record(monkeypatch, scheme):
    """A leg recording steps 20 and 60 takes n_steps = 60 steps and returns
    two states, backward, forward, and with a source row, whose phi is read
    at step 60."""
    steps = []
    patch_steps(monkeypatch, lambda x, weight: steps.append(1))
    psi = free_packet()
    cfg = PropagatorConfig(dt=0.01, record_steps=(20, 60), scheme=scheme)
    assert cfg.n_steps == 60
    assert len(propagate_backward(psi, cfg)) == 2
    assert len(steps) == 60
    steps.clear()
    propagate(psi, cfg)
    assert len(steps) == 60
    steps.clear()
    mask = np.ones(FREE_GRID.n, dtype=bool)
    propagate_with_source(psi, cfg, None, mask, (1.0, 1.0))
    assert len(steps) == 60


@pytest.mark.parametrize("cell, error, message", [
    (0, SchemeInstabilityError,
     r"non-finite amplitude \(?nan.* after 1 steps of spectral-split-step \(t=0\.01\)"),
    (FREE_GRID.n // 2, SchemeInstabilityError, "norm drifted by nan after 1 steps"),
])
def test_nan_after_the_first_step_trips_a_guard(monkeypatch, cell, error, message):
    """NaN compares false with every limit, so each guard fails on it: a NaN
    put in an edge cell after the first step, with that step's edge weight
    read again from the poisoned row, trips the per-step edge check, which
    names it a non-finite amplitude, not an edge density; one inside the
    domain trips the norm guard at the record after the step.  The poisoned
    row must hold grid amplitudes, so the leg crosses FFT_PAIR_BARRIER, on
    which split-step steps through its FFT pair."""
    def poison(x, weight):
        x[0, cell] = np.nan
        weight[0] = tdse._edge_weight(x[0])

    patch_steps(monkeypatch, poison)
    cfg = PropagatorConfig(dt=0.01, record_steps=(1, 10))
    with pytest.raises(error, match=message):
        propagate(free_packet(), cfg, FFT_PAIR_BARRIER)


@pytest.mark.parametrize("scheme, barrier, entry, tripped", [
    ("spectral-split-step", FFT_PAIR_BARRIER, FREE_GRID.n // 2, 6),
    ("spectral-split-step", None, FREE_GRID.n // 2, 6),
    ("spectral-split-step", None, None, 5),
    ("implicit-fd", FFT_PAIR_BARRIER, FREE_GRID.n // 2, 6),
    ("implicit-fd", None, FREE_GRID.n // 2, 6),
    ("implicit-fd", None, None, 5),
], ids=["spectral-split-step", "spectral-split-step-fourier-space",
        "spectral-split-step-fourier-space-edge-reads", "implicit-fd",
        "implicit-fd-fourier-space", "implicit-fd-fourier-space-edge-reads"])
def test_interior_nan_between_records_is_a_scheme_failure(monkeypatch, scheme, barrier,
                                                          entry, tripped):
    """A NaN put after step 5, between the records at steps 1 and 10, raises
    SchemeInstabilityError, not EdgeDensityError, under either scheme.  Put
    in the middle entry of the carried row, where the row is the grid
    amplitudes (on FFT_PAIR_BARRIER), the next step's FFT spreads it to
    every cell and the edge check after step 6 fires.  In Fourier space (no
    barrier) the middle entry is a coefficient; a block reads the edge cells
    of each of its steps from the coefficients it starts from, so step 6 is
    the first whose edge read sees it, and there too the check after step 6
    fires.  Put in the edge weight that step 5 returned (entry None), the
    block-form counterpart of a carried edge read, it trips the check after
    step 5: the guard reads what the step returned."""
    steps = []

    def poison(x, weight):
        steps.append(1)
        if len(steps) == 5:
            if entry is None:
                weight[0] = np.nan
            else:
                x[0, entry] = np.nan

    patch_steps(monkeypatch, poison)
    cfg = PropagatorConfig(dt=0.01, record_steps=(1, 10), scheme=scheme)
    with pytest.raises(SchemeInstabilityError,
                       match=rf"non-finite amplitude .* after {tripped} steps of {scheme} "
                             rf"\(t=0\.0{tripped}\)"):
        propagate(free_packet(), cfg, barrier)


def test_non_finite_initial_state_is_rejected():
    amp = free_packet().amp.copy()
    amp[FREE_GRID.n // 2] = np.inf
    cfg = PropagatorConfig(dt=0.01, record_steps=(10,))
    with pytest.raises(ConfigError, match="non-finite"):
        propagate(WaveFunction(FREE_GRID, amp), cfg)
