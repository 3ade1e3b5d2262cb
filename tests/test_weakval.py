"""Conditional (two-state) values: spin anomaly, completeness, reduction to
the ordinary density under whole-domain post-selection, and the conditional
dwell."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from weaktunnel import weakval
from weaktunnel.core import Grid, RegionProjector, gaussian_packet, spin_eigenstate, spin_ops
from weaktunnel.errors import ConfigError, OverlapFloorError
from weaktunnel.pointer import WeakProbe, two_probe_run
from weaktunnel.tdse import PropagatorConfig, propagate, propagate_backward
from weaktunnel.weakval import (barrier_occupation, dwell_time, make_pair,
                                transmitted_dwell_time, transmitted_pair,
                                weak_moment, weak_value, window_nodes)

from conftest import (SMALL_SCENARIO, density, patch_steps, record_region_values,
                      region_probability)

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


def standalone_legs(psi, final, prop, barrier):
    """(ket, bra) at every record of prop, from a forward leg from psi and a
    backward leg from final, each run on its own."""
    kets = propagate(psi, prop, barrier)
    back = replace(prop, record_steps=tuple(prop.n_steps - j
                                            for j in reversed(prop.record_steps)))
    bras = reversed(propagate_backward(final, back, barrier))
    return list(zip(kets, bras, strict=True))


def standalone_values(psi, final, prop, barrier):
    """conj(bra) * ket / <bra|ket> at every record of prop, from standalone_legs."""
    return np.array([np.conj(bra.amp) * ket.amp / bra.inner(ket)
                     for ket, bra in standalone_legs(psi, final, prop, barrier)])


def transmitted_final(psi, cfg):
    """The evolved state projected beyond the cut at the duration: the bra
    transmitted_pair's backward leg starts from."""
    evolved, = propagate(psi, cfg.propagator((cfg.n_steps,)), cfg.barrier())
    beyond = RegionProjector(cfg.grid(), cfg.transmit_cut(), cfg.x_max)
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
    left, right = (np.diag(RegionProjector(grid, *ends).mask.astype(float))
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
    """A time 4 * (1 + rel) names the record at t=4 for either end of a
    window alike: at 0.5e-9 relative, and not at 2e-9.  A leg takes its
    record steps as integers, so window ends are the one float time that
    must name a record."""
    t = 4.0 * (1.0 + rel)
    times = (2.0, 4.0, 6.0)
    uses = [
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
    """A region the packet never reaches: after SMALL_SCENARIO's full 35 time
    units even [150, 200) holds 9.1e-10, above the floor, so the leg is
    100 steps long."""
    cfg = replace(SMALL_SCENARIO, n_steps=100)
    psi = gaussian_packet(cfg.grid(), -20.0, 4.0, 1.0)
    far = RegionProjector(cfg.grid(), 150.0, 200.0)
    prop = cfg.propagator((cfg.n_steps,))
    with pytest.raises(OverlapFloorError, match="post-selection probability"):
        make_pair(psi, far, prop, cfg.barrier())


def test_transmitted_pair_cut_validation():
    cfg = SMALL_SCENARIO
    prop = cfg.propagator()
    with pytest.raises(ConfigError):
        transmitted_pair(cfg.packet(), prop, cfg.barrier(), cut=1.0)
    with pytest.raises(ConfigError):
        transmitted_pair(cfg.packet(), prop, cfg.barrier(), cut=cfg.x_max)


@pytest.mark.parametrize("grid", [Grid.from_domain(0.0, 512.0, 1024),
                                  Grid.from_domain(-256.0, 256.0, 512)],
                         ids=["shifted", "half-n"])
def test_projectors_on_another_grid_are_refused_before_a_step(grid, monkeypatch):
    """A post-selection or region built on a grid other than the state's, or
    a state passed as post-selection, raises ConfigError before any step."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    psi = cfg.packet()
    home = cfg.grid()
    prop = cfg.propagator()
    pair = transmitted_pair(psi, prop, barrier, cfg.transmit_cut())
    steps = []
    patch_steps(monkeypatch, lambda x, weight: steps.append(1))

    whole = RegionProjector(home, home.x_min, home.x_max)
    region = RegionProjector(home, cfg.barrier_left, cfg.barrier_right)
    other_whole = RegionProjector(grid, grid.x_min, grid.x_max)
    other = RegionProjector(grid, cfg.barrier_left, cfg.barrier_right)
    window = (pair.times[0], pair.times[-1])
    calls = [
        lambda: make_pair(psi, other_whole, prop, barrier),
        lambda: make_pair(psi, psi, prop, barrier),
        lambda: dwell_time(psi, other_whole, prop, region, barrier),
        lambda: dwell_time(psi, psi, prop, region, barrier),
        lambda: dwell_time(psi, whole, prop, other, barrier),
        lambda: transmitted_dwell_time(psi, prop, barrier, cfg.transmit_cut(), other),
        lambda: pair.window_value(other, window),
        lambda: two_probe_run(pair, WeakProbe(region, 0.01, window),
                              WeakProbe(other, 0.01, window), pointer_sigma=1.0),
    ]
    for call in calls:
        with pytest.raises(ConfigError):
            call()
    assert steps == []


@pytest.mark.parametrize("builder", ["transmitted", "whole-domain"])
def test_one_forward_and_one_backward_leg_per_pair(builder, monkeypatch):
    """Building a pair and reducing it with every conditional observable runs
    each propagation leg once, and the stored values are those of the two
    legs run on their own, bit for bit."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    prop = cfg.propagator((0,) + cfg.record_steps())
    psi = cfg.packet()
    standalone = propagate(psi, prop, barrier)
    final = standalone[-1]
    grid = cfg.grid()
    bra = transmitted_final(psi, cfg) if builder == "transmitted" else final
    want = standalone_values(psi, bra, prop, barrier)

    legs = Counter()
    monkeypatch.setattr(weakval, "propagate", counted(legs, "forward", weakval.propagate))
    monkeypatch.setattr(weakval, "propagate_backward",
                        counted(legs, "backward", weakval.propagate_backward))
    if builder == "transmitted":
        pair = transmitted_pair(psi, prop, barrier, cfg.transmit_cut())
    else:
        pair = make_pair(psi, RegionProjector(grid, grid.x_min, grid.x_max), prop, barrier)
    region = RegionProjector(grid, cfg.barrier_left, cfg.barrier_right)
    barrier_occupation(pair, barrier)
    probe = WeakProbe(region, 0.01, (pair.times[1], pair.times[5]))
    two_probe_run(pair, probe, probe, pointer_sigma=1.0)
    assert legs == {"forward": 1, "backward": 1}

    assert pair.times == prop.record_times
    assert np.array_equal(pair.values, want)
    assert not pair.values.flags.writeable


@pytest.mark.parametrize("builder", ["transmitted", "whole-domain"])
def test_dwell_runs_one_forward_leg_and_no_backward_leg(builder, monkeypatch):
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    psi = cfg.packet()
    grid = cfg.grid()
    legs = Counter()

    for name in ("propagate", "propagate_backward", "propagate_with_source"):
        monkeypatch.setattr(weakval, name, counted(legs, name, getattr(weakval, name)))
    region = RegionProjector(grid, cfg.barrier_left, cfg.barrier_right)
    if builder == "transmitted":
        transmitted_dwell_time(psi, cfg.propagator(), barrier, cfg.transmit_cut(), region)
    else:
        whole = RegionProjector(grid, grid.x_min, grid.x_max)
        dwell_time(psi, whole, cfg.propagator(), region, barrier)
    assert legs == {"propagate_with_source": 1}


def test_every_leg_runs_the_n_steps_of_its_config(monkeypatch):
    """A leg takes exactly cfg.n_steps steps, so a count read off the config
    each leg receives is the count taken.  Records at steps 40, 80, ..., 400:
    the pair's forward leg takes 400 and its backward leg 360, back to the
    first record, and the dwell's source leg 400."""
    cfg = FAST_TRANSMISSION
    barrier = cfg.barrier()
    region = RegionProjector(cfg.grid(), cfg.barrier_left, cfg.barrier_right)
    steps, legs = [], []
    patch_steps(monkeypatch, lambda x, weight: steps.append(1))

    def measured(fn):
        def wrapper(psi, leg, *args):
            taken = len(steps)
            result = fn(psi, leg, *args)
            legs.append((fn.__name__, leg.n_steps, len(steps) - taken))
            return result
        return wrapper

    for name in ("propagate", "propagate_backward", "propagate_with_source"):
        monkeypatch.setattr(weakval, name, measured(getattr(weakval, name)))
    transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    transmitted_dwell_time(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut(), region)
    assert legs == [("propagate", 400, 400), ("propagate_backward", 360, 360),
                    ("propagate_with_source", 400, 400)]


def test_implicit_fd_dwell_and_center_to_peak_are_pinned():
    """The dwell and center_to_peak of the bench trace-cn scenario under
    Crank-Nicolson, recorded from the band LU step.  The 8-cell barrier
    steps in Fourier space, in blocks of k=4 steps, which sit 8.8e-14 and
    1.3e-13 relative away from these, and 4.0e-13 and 1.3e-13 from the
    bench's reference values, recorded from the sparse-LU step, with one
    BLAS thread or two (one step at a time: 2.5e-14 and 1.3e-13, and
    3.4e-13 and 1.2e-13; the FFT-pair step: 6.3e-14 and 1.7e-14, and
    2.5e-13 and 2.1e-14); rel 1e-11
    admits such a reordering of the arithmetic, while halving dt moves
    center_to_peak by 1.6e-3."""
    cfg = replace(SMALL_SCENARIO, dt=0.02, n_steps=1750, scheme="implicit-fd")
    barrier = cfg.barrier()
    region = RegionProjector(cfg.grid(), barrier.x_left, barrier.x_right)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), barrier,
                                   cfg.transmit_cut(), region)
    assert dwell.time == pytest.approx(1.4695316986960907, rel=1e-11)
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    occupation = barrier_occupation(pair, barrier)
    assert occupation.center_to_peak() == pytest.approx(0.1506331687434938, rel=1e-11)


def test_fast_center_to_peak_box_error_is_bounded(small_pair):
    """center_to_peak of the SMALL_SCENARIO pair on its 1x box [-256, 256)
    against the 2x box [-512, 512) at the same dx (n=2048): 0.14907644171886
    against 0.14903507086578, a box error of 4.14e-5 (2.8e-4 relative) in
    the pinned 1x value.  The backward leg carries it, and it falls off as
    about 1/L^2 in the box length L; the bound is that measured gap."""
    one = barrier_occupation(small_pair["pair"], small_pair["barrier"]).center_to_peak()
    cfg = replace(SMALL_SCENARIO, x_min=-512.0, x_max=512.0, n_points=2048)
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    two = barrier_occupation(pair, barrier).center_to_peak()
    assert one == pytest.approx(0.14907644171886084, rel=1e-9)
    assert two == pytest.approx(0.14903507086578463, rel=1e-9)
    assert 0.0 < one - two <= 4.2e-5


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
    prop = cfg.propagator((0, 17_500, 35_000))
    psi = cfg.packet()
    snaps = propagate(psi, prop, barrier)
    grid = cfg.grid()
    pair = make_pair(psi, RegionProjector(grid, grid.x_min, grid.x_max), prop, barrier)
    for j, state in enumerate(snaps):
        assert np.max(np.abs(pair.values.real[j] - density(state))) <= 1e-6
        assert np.max(np.abs(pair.values.imag[j])) <= 1e-6


def test_dwell_time_whole_domain_is_the_duration():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    whole = RegionProjector(grid, grid.x_min, grid.x_max)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), cfg.barrier(),
                                   cfg.transmit_cut(), whole)
    assert dwell.times == (0.0,) + cfg.propagator().record_times
    assert dwell.time == pytest.approx(cfg.duration, rel=1e-6)


def test_pair_dwell_and_snapshots_read_one_instant_per_record():
    """Every reader names record step j by its j * dt: steps 3 and 7 of 0.1
    read 0.30000000000000004 and 0.7000000000000001 for the pair and the
    dwell alike, and a leg returns one state per record step."""
    grid = Grid.from_domain(-64.0, 64.0, 256)
    psi = gaussian_packet(grid, 0.0, 4.0, 0.5)
    prop = PropagatorConfig(dt=0.1, record_steps=(3, 7, 30))
    assert prop.record_times == (3 * 0.1, 7 * 0.1, 30 * 0.1)
    whole = RegionProjector(grid, grid.x_min, grid.x_max)
    pair = make_pair(psi, whole, prop)
    dwell = dwell_time(psi, whole, prop, RegionProjector(grid, -8.0, 8.0))
    assert len(propagate(psi, prop)) == len(prop.record_steps)
    assert pair.times == dwell.times[1:] == prop.record_times
    assert dwell.times[0] == 0.0


def test_dwell_time_requires_full_time_span():
    cfg = FAST_TRANSMISSION
    grid = cfg.grid()
    whole = RegionProjector(grid, grid.x_min, grid.x_max)
    records = cfg.record_steps()
    # step 0 is always a node, whether or not the records hold it
    plain, with_zero = (
        transmitted_dwell_time(cfg.packet(), cfg.propagator(steps),
                               cfg.barrier(), cfg.transmit_cut(), whole)
        for steps in (records, (0,) + records))
    assert plain == with_zero


@pytest.mark.parametrize("scheme", ["spectral-split-step", "implicit-fd"])
def test_forward_leg_dwell_matches_pair_trapezoid_oracle(scheme):
    """The source row carried beside the forward leg gives the trapezoid of
    the pair's conditional barrier weight over t=0 and the records.  The
    oracle divides by each record's overlap, and those drift from the
    post-selection probability by the roundoff of the two legs (5.1e-15
    relative on split-step, 6.9e-15 on Crank-Nicolson, both of which step
    this barrier in Fourier space in blocks of k=4 steps; split-step's FFT
    pair drifted 2.0e-12), so the bound is 1e-12 plus that drift; measured
    gaps 2.9e-15 and 3.3e-15 (1.9e-12 through split-step's FFT pair)."""
    cfg = replace(SMALL_SCENARIO, scheme=scheme)
    barrier = cfg.barrier()
    region = RegionProjector(cfg.grid(), cfg.barrier_left, cfg.barrier_right)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), barrier,
                                   cfg.transmit_cut(), region)
    prop = cfg.propagator((0,) + cfg.record_steps())
    assert prop.record_times == dwell.times
    pair = transmitted_pair(cfg.packet(), prop, barrier, cfg.transmit_cut())
    prob = pair.postselect_prob
    # <bra|ket> at each record, from the pair's two legs rerun on their own
    legs = standalone_legs(cfg.packet(), transmitted_final(cfg.packet(), cfg), prop, barrier)
    drift = max(abs(bra.inner(ket) - prob) for ket, bra in legs) / prob
    assert dwell.postselect_prob == pytest.approx(pair.postselect_prob, rel=1e-13)
    assert dwell.time == pytest.approx(pair_dwell_oracle(pair, region, cfg.duration),
                                       rel=1e-12 + drift)


def test_free_crossing_dwell_matches_density_integral():
    cfg = SMALL_SCENARIO
    grid = cfg.grid()
    psi = gaussian_packet(grid, -25.0, 5.0, 1.0)
    prop = PropagatorConfig(dt=cfg.dt, record_steps=tuple(2500 * j for j in range(19)))
    snaps = propagate(psi, prop)
    region = RegionProjector(grid, -5.0, 5.0)

    dwell = dwell_time(psi, RegionProjector(grid, grid.x_min, grid.x_max), prop, region)
    assert dwell.times == prop.record_times
    occupancy = [region_probability(region, s) for s in snaps]
    oracle = float(np.trapezoid(occupancy, prop.record_times))
    assert dwell.time == pytest.approx(oracle, rel=1e-8)
    # a unit-speed packet spends about width/speed inside the region
    assert dwell.time == pytest.approx(10.0, rel=0.05)
