"""Conditional (two-state) values: spin anomaly, completeness, reduction to
the ordinary density, time-reversal symmetry, and the tunneling trace."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from weaktunnel import weakval
from weaktunnel.core import (WaveFunction, gaussian_packet, region_projector,
                             spin_eigenstate, spin_ops)
from weaktunnel.errors import ConfigError, OverlapFloorError
from weaktunnel.pointer import WeakProbe, two_probe_run
from weaktunnel.tdse import PropagatorConfig, propagate
from weaktunnel.weakval import (conditional_distribution, conditional_dwell_time,
                                make_pair, transmitted_pair, weak_moment,
                                weak_value)

from conftest import SMALL_SCENARIO

# A packet well above the barrier that clears the transmission cut within
# 400 coarse steps: every stage of a transmitted pair at almost no cost.
FAST_TRANSMISSION = replace(SMALL_SCENARIO, packet_energy=4.5, dt=0.05, n_steps=400)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_spin_anomaly_value_and_second_moment():
    ops = spin_ops(0.5)
    pre = spin_eigenstate(ops.sz, +0.5)
    post = spin_eigenstate(ops.sx, +0.5)
    tilted = (ops.sz + ops.sx) * INV_SQRT2

    wv = weak_value(tilted, pre, post)
    assert abs(wv.real - INV_SQRT2) <= 1e-12
    assert abs(wv.imag) <= 1e-12
    # the operator's spectrum is {-1/2, +1/2}; the conditional value escapes it
    eigs = np.linalg.eigvalsh(tilted)
    assert np.allclose(eigs, [-0.5, 0.5], atol=1e-12)
    assert wv.real > 0.5

    m2 = weak_moment(tilted, 2, pre, post)
    assert abs(m2 - 0.25) <= 1e-13


def test_weak_value_is_linear_in_the_operator():
    rng = np.random.default_rng(8)
    pre = rng.normal(size=2) + 1j * rng.normal(size=2)
    post = rng.normal(size=2) + 1j * rng.normal(size=2)
    for _ in range(20):
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        al, be = complex(rng.normal(), rng.normal()), complex(rng.normal())
        lhs = weak_value(al * m1 + be * m2, pre, post)
        rhs = al * weak_value(m1, pre, post) + be * weak_value(m2, pre, post)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_weak_value_of_identity_is_exactly_one():
    rng = np.random.default_rng(3)
    pre = rng.normal(size=4) + 1j * rng.normal(size=4)
    post = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert weak_value(np.eye(4), pre, post) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_complementary_region_values_sum_to_one():
    grid = SMALL_SCENARIO.grid()
    pre = gaussian_packet(grid, -20.0, 4.0, 1.0)
    post = gaussian_packet(grid, -16.0, 5.0, 0.8)
    left = region_projector(grid, grid.x_min, 0.0)
    right = region_projector(grid, 0.0, grid.x_max)
    total = weak_value(left, pre, post) + weak_value(right, pre, post)
    assert abs(total - 1.0) <= 1e-12


def test_moment_order_and_floor_guards():
    ops = spin_ops(0.5)
    up = spin_eigenstate(ops.sz, +0.5)
    down = spin_eigenstate(ops.sz, -0.5)
    with pytest.raises(ConfigError):
        weak_moment(ops.sx, 0, up, up)
    with pytest.raises(OverlapFloorError):
        weak_value(ops.sx, up, down)


def test_make_pair_rejects_orthogonal_postselection():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    psi = gaussian_packet(grid, -20.0, 4.0, 1.0)
    far = gaussian_packet(grid, 200.0, 4.0, 1.0)
    prop = cfg.propagator(record_times=(cfg.duration,))
    with pytest.raises(OverlapFloorError):
        make_pair(psi, far, prop, cfg.barrier())


def test_transmitted_pair_cut_validation():
    cfg = SMALL_SCENARIO
    prop = cfg.propagator()
    with pytest.raises(ConfigError):
        transmitted_pair(cfg.packet(), prop, cfg.barrier(), cut=1.0)
    with pytest.raises(ConfigError):
        transmitted_pair(cfg.packet(), prop, cfg.barrier(), cut=cfg.x_max)


@pytest.mark.parametrize("builder", ["transmitted", "explicit"])
def test_one_forward_and_one_backward_leg_per_pair(builder, monkeypatch):
    """Building a pair and reducing it with every conditional observable runs
    each propagation leg once, and the stored kets are the forward leg."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    prop = cfg.propagator(record_times=(0.0,) + cfg.record_times())
    psi = cfg.packet()
    standalone = propagate(psi, prop, barrier)

    legs = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            legs[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weakval, "propagate", counted("forward", weakval.propagate))
    monkeypatch.setattr(weakval, "propagate_backward",
                        counted("backward", weakval.propagate_backward))
    if builder == "transmitted":
        pair = transmitted_pair(psi, prop, barrier, cfg.transmit_cut())
    else:
        pair = make_pair(psi, standalone[-1].psi, prop, barrier)
    region = region_projector(cfg.grid(), cfg.barrier_left, cfg.barrier_right)
    conditional_distribution(pair)
    conditional_dwell_time(pair, region)
    probe = WeakProbe(region, 0.01, (pair.times[1], pair.times[5]))
    two_probe_run(pair, probe, probe, pointer_sigma=1.0)
    assert legs == {"forward": 1, "backward": 1}

    assert pair.times == tuple(s.t for s in standalone)
    for ket, snap in zip(pair.kets, standalone, strict=True):
        assert np.array_equal(ket.amp, snap.psi.amp)


def test_records_may_stop_before_the_post_selection():
    """The forward leg still reaches the post-selection time when the record
    grid ends early, and the shared records come out bit for bit the same."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    full = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    early = transmitted_pair(cfg.packet(), cfg.propagator(record_times=full.times[:3]),
                             barrier, cfg.transmit_cut())
    assert early.times == full.times[:3]
    assert early.overlap == full.overlap
    assert early.postselect_prob == full.postselect_prob
    for j in range(3):
        assert np.array_equal(early.kets[j].amp, full.kets[j].amp)
        assert np.array_equal(early.bras[j].amp, full.bras[j].amp)


def test_conditional_distribution_completeness(small_pair):
    dist = small_pair["dist"]
    dx = dist.grid.dx
    assert np.all(np.abs(dist.norm_per_time() - 1.0) <= 1e-8)
    assert np.all(np.abs(np.sum(dist.im, axis=1) * dx) <= 1e-8)
    for j in range(len(dist.times)):
        split = (dist.integrate_region(dist.grid.x_min, 0.0, j)
                 + dist.integrate_region(0.0, dist.grid.x_max, j))
        assert split == pytest.approx(1.0, abs=1e-8)


def test_unconditioned_distribution_reduces_to_density():
    cfg = SMALL_SCENARIO
    barrier = cfg.barrier()
    prop = cfg.propagator(record_times=(0.0, 17.5, 35.0))
    psi = cfg.packet()
    snaps = propagate(psi, prop, barrier)
    pair = make_pair(psi, snaps[-1].psi, prop, barrier)
    dist = conditional_distribution(pair)
    for j, (_, state) in enumerate(snaps):
        assert np.max(np.abs(dist.re[j] - state.density())) <= 1e-6
        assert np.max(np.abs(dist.im[j])) <= 1e-6


def test_postselected_distribution_is_time_reversal_symmetric():
    """Conjugating and swapping the boundary states replays the conditional
    distribution backwards, and the two overlaps coincide."""
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    barrier = cfg.barrier()
    times = (0.0,) + cfg.record_times()
    prop = cfg.propagator(record_times=times)

    psi = cfg.packet()
    target = gaussian_packet(grid, 15.0, 4.0, cfg.k0)
    pair = make_pair(psi, target, prop, barrier)
    dist = conditional_distribution(pair)

    flipped = make_pair(WaveFunction(grid, np.conj(target.amp)),
                        WaveFunction(grid, np.conj(psi.amp)), prop, barrier)
    assert abs(flipped.overlap - pair.overlap) <= 1e-9 * abs(pair.overlap)
    dist2 = conditional_distribution(flipped)

    # conjugating both boundary states makes the full complex value replay:
    # the reversed run's numerator at s is the original's at duration - s
    n = len(times)
    for j in range(n):
        assert dist2.times[j] == pytest.approx(cfg.duration - times[n - 1 - j])
        assert np.max(np.abs(dist2.re[j] - dist.re[n - 1 - j])) <= 1e-6
        assert np.max(np.abs(dist2.im[j] - dist.im[n - 1 - j])) <= 1e-6


def test_dwell_time_whole_domain_is_the_duration():
    cfg = SMALL_SCENARIO
    prop = cfg.propagator(record_times=(0.0,) + cfg.record_times())
    pair = transmitted_pair(cfg.packet(), prop, cfg.barrier(), cfg.transmit_cut())
    grid = cfg.grid()
    whole = region_projector(grid, grid.x_min, grid.x_max)
    dwell = conditional_dwell_time(pair, whole)
    assert dwell == pytest.approx(cfg.duration, rel=1e-6)


def test_dwell_time_requires_full_time_span(small_pair):
    grid = small_pair["cfg"].grid()
    whole = region_projector(grid, grid.x_min, grid.x_max)
    # the fixture pair records from 3.5, not 0
    with pytest.raises(ConfigError):
        conditional_dwell_time(small_pair["pair"], whole)


def test_free_crossing_dwell_matches_density_integral():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    psi = gaussian_packet(grid, -25.0, 5.0, 1.0)
    times = tuple(2.5 * j for j in range(19))
    prop = PropagatorConfig(dt=cfg.dt, n_steps=45_000, record_times=times)
    snaps = propagate(psi, prop)
    pair = make_pair(psi, snaps[-1].psi, prop)
    region = region_projector(grid, -5.0, 5.0)

    dwell = conditional_dwell_time(pair, region)
    occupancy = [region.expectation(s.psi) for s in snaps]
    oracle = float(np.trapezoid(occupancy, times))
    assert dwell == pytest.approx(oracle, rel=1e-8)
    # a unit-speed packet spends about width/speed inside the region
    assert dwell == pytest.approx(10.0, rel=0.05)


def test_tunneling_trace_structure(trace_run):
    cfg, dist, occ = trace_run["cfg"], trace_run["dist"], trace_run["occ"]
    grid = dist.grid
    assert len(dist.times) == cfg.n_record
    assert np.all(np.abs(dist.norm_per_time() - 1.0) <= 1e-8)
    assert trace_run["prob"] == pytest.approx(1.3044421208656991e-08, rel=1e-6)
    # the conditioned particle starts on the left and ends on the right
    assert dist.integrate_region(grid.x_min, 0.0, 0) > 0.9
    assert dist.integrate_region(0.0, grid.x_max, len(dist.times) - 1) > 0.9
    # interior weight never rivals the face fringes
    assert occ.center_to_peak() < 0.05
    assert np.all(occ.entrance >= 0.0) and np.all(occ.exit >= 0.0)
