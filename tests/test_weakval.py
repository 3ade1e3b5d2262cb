"""Conditional (two-state) values: spin anomaly, completeness, reduction to
the ordinary density, time-reversal symmetry, and the conditional dwell."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from weaktunnel import weakval
from weaktunnel.core import (WaveFunction, gaussian_packet, region_projector,
                             spin_eigenstate, spin_ops)
from weaktunnel.errors import ConfigError, OverlapFloorError
from weaktunnel.pointer import WeakProbe, two_probe_run
from weaktunnel.tdse import PropagatorConfig, propagate, propagate_backward
from weaktunnel.weakval import (barrier_occupation, dwell_time, make_pair,
                                transmitted_dwell_time, transmitted_pair,
                                weak_moment, weak_value, window_nodes)

from conftest import SMALL_SCENARIO, record_region_values

# A packet well above the barrier that clears the transmission cut within
# 400 coarse steps: every stage of a transmitted pair at almost no cost.
FAST_TRANSMISSION = replace(SMALL_SCENARIO, packet_energy=4.5, dt=0.05, n_steps=400)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def counted(legs, name, fn):
    """fn, adding one to legs[name] at every call."""
    def wrapper(*args, **kwargs):
        legs[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def pair_dwell_oracle(pair, region, duration):
    """The dwell as the trapezoid over the pair's records of Re of the
    conditional region weight; the records must span [0, duration]."""
    times = pair.times
    assert times[0] == 0.0 and times[-1] == pytest.approx(duration)
    return float(np.trapezoid(record_region_values(pair, region).real, times))


def standalone_values(psi, final, prop, barrier):
    """conj(bra) * ket / <bra|ket> at every record of prop, from a forward leg
    from psi and a backward leg from final, each run on its own."""
    kets = propagate(psi, prop, barrier)
    back = replace(prop, record_times=tuple(prop.duration - t
                                            for t in reversed(prop.record_times)))
    bras = reversed(propagate_backward(final, back, barrier))
    return np.array([np.conj(bra.amp) * ket.amp / bra.inner(ket)
                     for (_, ket), (_, bra) in zip(kets, bras, strict=True)])


def transmitted_final(psi, cfg):
    """The evolved state projected beyond the cut at the duration: the bra
    transmitted_pair's backward leg starts from."""
    (_, evolved), = propagate(psi, cfg.propagator(record_times=()), cfg.barrier())
    beyond = region_projector(cfg.grid(), cfg.transmit_cut(), cfg.x_max)
    return beyond.apply(evolved)


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
    left, right = (np.diag(region_projector(grid, *ends).mask.astype(float))
                   for ends in ((grid.x_min, 0.0), (0.0, grid.x_max)))
    total = weak_value(left, pre.amp, post.amp) + weak_value(right, pre.amp, post.amp)
    assert abs(total - 1.0) <= 1e-12


def test_moment_order_and_floor_guards():
    ops = spin_ops(0.5)
    up = spin_eigenstate(ops.sz, +0.5)
    down = spin_eigenstate(ops.sz, -0.5)
    with pytest.raises(ConfigError):
        weak_moment(ops.sx, 0, up, up)
    with pytest.raises(OverlapFloorError):
        weak_value(ops.sx, up, down)


@pytest.mark.parametrize("rel, same", [(0.5e-9, True), (-0.5e-9, True),
                                       (2e-9, False), (-2e-9, False)])
def test_record_steps_and_window_ends_share_one_time_rule(rel, same):
    """A time 4 * (1 + rel) names the record at t=4 for the propagator and
    for either end of a window alike: at 0.5e-9 relative, and not at 2e-9."""
    t = 4.0 * (1.0 + rel)
    times = (2.0, 4.0, 6.0)
    uses = [
        (lambda: PropagatorConfig(dt=0.05, n_steps=120, record_times=(t,)).record_steps,
         (80,)),
        (lambda: window_nodes(times, (t, 6.0))[0].tolist(), [1, 2]),
        (lambda: window_nodes(times, (2.0, t))[0].tolist(), [0, 1]),
    ]
    for use, expected in uses:
        if same:
            assert use() == expected
        else:
            with pytest.raises(ConfigError):
                use()


def test_make_pair_rejects_orthogonal_postselection():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    psi = gaussian_packet(grid, -20.0, 4.0, 1.0)
    far = gaussian_packet(grid, 200.0, 4.0, 1.0)
    prop = cfg.propagator(record_times=(cfg.duration,))
    with pytest.raises(OverlapFloorError, match="post-selection probability"):
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
    each propagation leg once, and the stored values are those of the two
    legs run on their own, bit for bit."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    prop = cfg.propagator(record_times=(0.0,) + cfg.record_times())
    psi = cfg.packet()
    standalone = propagate(psi, prop, barrier)
    final = standalone[-1].psi
    if builder == "transmitted":
        bra = transmitted_final(psi, cfg)
    else:
        bra = WaveFunction(final.grid, final.inner(final) * final.amp)  # <f|psi(T)> f
    want = standalone_values(psi, bra, prop, barrier)

    legs = Counter()
    monkeypatch.setattr(weakval, "propagate", counted(legs, "forward", weakval.propagate))
    monkeypatch.setattr(weakval, "propagate_backward",
                        counted(legs, "backward", weakval.propagate_backward))
    if builder == "transmitted":
        pair = transmitted_pair(psi, prop, barrier, cfg.transmit_cut())
    else:
        pair = make_pair(psi, final, prop, barrier)
    region = region_projector(cfg.grid(), cfg.barrier_left, cfg.barrier_right)
    barrier_occupation(pair, barrier)
    probe = WeakProbe(region, 0.01, (pair.times[1], pair.times[5]))
    two_probe_run(pair, probe, probe, pointer_sigma=1.0)
    assert legs == {"forward": 1, "backward": 1}

    assert pair.times == tuple(s.t for s in standalone)
    assert np.array_equal(pair.values, want)
    assert not pair.values.flags.writeable


@pytest.mark.parametrize("builder", ["transmitted", "explicit"])
def test_dwell_runs_one_forward_leg_and_no_backward_leg(builder, monkeypatch):
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    psi = cfg.packet()
    (_, evolved), = propagate(psi, cfg.propagator(record_times=()), barrier)
    legs = Counter()

    for name in ("propagate", "propagate_backward", "propagate_with_source"):
        monkeypatch.setattr(weakval, name, counted(legs, name, getattr(weakval, name)))
    region = region_projector(cfg.grid(), cfg.barrier_left, cfg.barrier_right)
    if builder == "transmitted":
        transmitted_dwell_time(psi, cfg.propagator(), barrier, cfg.transmit_cut(), region)
    else:
        dwell_time(psi, evolved, cfg.propagator(), region, barrier)
    assert legs == {"propagate_with_source": 1}


def test_records_may_stop_before_the_post_selection():
    """The forward leg still reaches the post-selection time when the record
    grid ends early, and the shared records come out bit for bit the same."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    full = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    early = transmitted_pair(cfg.packet(), cfg.propagator(record_times=full.times[:3]),
                             barrier, cfg.transmit_cut())
    assert early.times == full.times[:3]
    assert early.postselect_prob == full.postselect_prob
    prop = cfg.propagator(record_times=early.times)
    want = standalone_values(cfg.packet(), transmitted_final(cfg.packet(), cfg), prop, barrier)
    assert np.array_equal(early.values, want)
    assert np.array_equal(early.values, full.values[:3])


def test_implicit_fd_dwell_and_center_to_peak_are_pinned():
    """The dwell and center_to_peak of the bench trace-cn scenario under
    Crank-Nicolson, recorded from the band LU step.  The circulant FFT solve
    sits 4.4e-14 and 4.1e-13 relative away from these, and 2.7e-13 and
    4.0e-13 from the bench's reference values, recorded from the sparse-LU
    step; rel 1e-11 admits such a reordering of the arithmetic, while
    halving dt moves center_to_peak by 1.6e-3."""
    cfg = replace(SMALL_SCENARIO, dt=0.02, n_steps=1750, scheme="implicit-fd")
    barrier = cfg.barrier()
    region = region_projector(cfg.grid(), barrier.x_left, barrier.x_right)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), barrier,
                                   cfg.transmit_cut(), region)
    assert dwell.time == pytest.approx(1.4695316986960907, rel=1e-11)
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    occupation = barrier_occupation(pair, barrier)
    assert occupation.center_to_peak() == pytest.approx(0.1506331687434938, rel=1e-11)


def test_conditional_distribution_completeness(small_pair):
    pair = small_pair["pair"]
    grid = pair.grid
    norms = np.sum(pair.values, axis=1) * grid.dx
    assert np.all(np.abs(norms.real - 1.0) <= 1e-8)
    assert np.all(np.abs(norms.imag) <= 1e-8)
    left = np.sum(pair.values.real[:, grid.x < 0.0], axis=1) * grid.dx
    right = np.sum(pair.values.real[:, grid.x >= 0.0], axis=1) * grid.dx
    assert np.all(np.abs(left + right - 1.0) <= 1e-8)


def test_unconditioned_distribution_reduces_to_density():
    cfg = SMALL_SCENARIO
    barrier = cfg.barrier()
    prop = cfg.propagator(record_times=(0.0, 17.5, 35.0))
    psi = cfg.packet()
    snaps = propagate(psi, prop, barrier)
    pair = make_pair(psi, snaps[-1].psi, prop, barrier)
    for j, (_, state) in enumerate(snaps):
        assert np.max(np.abs(pair.values.real[j] - state.density())) <= 1e-6
        assert np.max(np.abs(pair.values.imag[j])) <= 1e-6


def test_postselected_distribution_is_time_reversal_symmetric():
    """Conjugating and swapping the boundary states replays the conditional
    distribution backwards, and the two amplitudes <f|U|i> coincide."""
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    barrier = cfg.barrier()
    times = (0.0,) + cfg.record_times()
    prop = cfg.propagator(record_times=times)

    psi = cfg.packet()
    target = gaussian_packet(grid, 15.0, 4.0, cfg.k0)
    pair = make_pair(psi, target, prop, barrier)

    flipped_psi = WaveFunction(grid, np.conj(target.amp))
    flipped_target = WaveFunction(grid, np.conj(psi.amp))
    flipped = make_pair(flipped_psi, flipped_target, prop, barrier)
    end = cfg.propagator(record_times=())
    (_, evolved), = propagate(psi, end, barrier)
    (_, flipped_evolved), = propagate(flipped_psi, end, barrier)
    amplitude = target.inner(evolved)
    assert abs(flipped_target.inner(flipped_evolved) - amplitude) <= 1e-9 * abs(amplitude)

    # conjugating both boundary states makes the full complex value replay:
    # the reversed run's numerator at s is the original's at duration - s
    n = len(times)
    for j in range(n):
        assert flipped.times[j] == pytest.approx(cfg.duration - times[n - 1 - j])
        gap = flipped.values[j] - pair.values[n - 1 - j]
        assert np.max(np.abs(gap.real)) <= 1e-6
        assert np.max(np.abs(gap.imag)) <= 1e-6


def test_dwell_time_whole_domain_is_the_duration():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    whole = region_projector(grid, grid.x_min, grid.x_max)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), cfg.barrier(),
                                   cfg.transmit_cut(), whole)
    assert dwell.times == (0.0,) + cfg.record_times()
    assert dwell.time == pytest.approx(cfg.duration, rel=1e-6)


def test_dwell_time_requires_full_time_span():
    cfg = FAST_TRANSMISSION
    grid = cfg.grid()
    whole = region_projector(grid, grid.x_min, grid.x_max)
    records = cfg.record_times()
    # records that stop before the duration leave the integral short
    with pytest.raises(ConfigError):
        transmitted_dwell_time(cfg.packet(), cfg.propagator(record_times=records[:-1]),
                               cfg.barrier(), cfg.transmit_cut(), whole)
    # t=0 is always a node, whether or not the records hold it
    plain, with_zero = (
        transmitted_dwell_time(cfg.packet(), cfg.propagator(record_times=times),
                               cfg.barrier(), cfg.transmit_cut(), whole)
        for times in (records, (0.0,) + records))
    assert plain == with_zero


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_forward_leg_dwell_matches_pair_trapezoid_oracle(scheme):
    """The source row carried beside the forward leg gives the trapezoid of
    the pair's conditional barrier weight over t=0 and the records.  The
    oracle divides by each record's overlap, and those drift from the
    post-selection probability by the roundoff of the two legs (2.0e-12
    relative on split-step, 4.0e-12 on Crank-Nicolson's FFT solve), so the
    bound is 1e-12 plus that drift; measured gaps 1.9e-12 and 4.0e-12."""
    cfg = replace(SMALL_SCENARIO, scheme=scheme)
    barrier = cfg.barrier()
    region = region_projector(cfg.grid(), cfg.barrier_left, cfg.barrier_right)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), barrier,
                                   cfg.transmit_cut(), region)
    pair = transmitted_pair(cfg.packet(), cfg.propagator(record_times=dwell.times),
                            barrier, cfg.transmit_cut())
    prob = pair.postselect_prob
    drift = max(abs(o - prob) for o in pair.overlaps) / prob
    assert dwell.postselect_prob == pytest.approx(pair.postselect_prob, rel=1e-13)
    assert dwell.time == pytest.approx(pair_dwell_oracle(pair, region, cfg.duration),
                                       rel=1e-12 + drift)


def test_free_crossing_dwell_matches_density_integral():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    psi = gaussian_packet(grid, -25.0, 5.0, 1.0)
    times = tuple(2.5 * j for j in range(19))
    prop = PropagatorConfig(dt=cfg.dt, n_steps=45_000, record_times=times)
    snaps = propagate(psi, prop)
    region = region_projector(grid, -5.0, 5.0)

    dwell = dwell_time(psi, snaps[-1].psi, prop, region)
    assert dwell.times == times
    occupancy = [region.expectation(s.psi) for s in snaps]
    oracle = float(np.trapezoid(occupancy, times))
    assert dwell.time == pytest.approx(oracle, rel=1e-8)
    # a unit-speed packet spends about width/speed inside the region
    assert dwell.time == pytest.approx(10.0, rel=0.05)
