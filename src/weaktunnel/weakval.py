"""Two-time conditional (weak) values between pre- and post-selected states.

For a system prepared in |i> and later found in |f>, the conditional value of
an operator A at an intermediate time is

    A_w(t) = <f(t)| A |i(t)> / <f(t)|i(t)>,

with |i(t)> evolved forward from preparation and <f(t)| evolved backward from
the post-selection time.  Taken over a complete set of position-cell
projectors this yields a distribution over x that sums to one at every
intermediate time but is not non-negative; its real part is the natural
reading of "where was the particle, given where it ended up".  The imaginary
part is kept in a companion channel.

The conditional distribution, the barrier occupation and the probe shifts
of pointer.two_probe_run read one history per pre/post pair.  A
post-selection is a region projector P (core.RegionProjector) on the grid of
the prepared state: onto x >= cut for transmission (transmitted_pair), and
onto the whole domain for the unconditioned history, since P U(T)|i> is then
U(T)|i> itself.  A pair post-selects at its last record T: building it
(make_pair) runs the forward leg from |i> once, applies P to its state at T,
and runs the backward leg from the projected state once, back to the first
record.  The bra is P U(T)|i> itself, not a renormalized copy, so <bra|ket>
is the post-selection probability <i|U^dag P U|i> at every time.  At every
recorded time the pair keeps the overlap and the cell-projector conditional
values conj(bra(t)) ket(t) / <bra(t)|ket(t)>, not the states, so whoever
builds the pair fixes the time resolution of its readouts.

One window rule, window_nodes, serves every time integral of a conditional
value: a window [t1, t2] must start and end on nodes of the time grid, by
same_instant, and hold at least two, and the integral is the trapezoid over
the nodes inside it.  Legs count in steps, so window ends are the only times
same_instant places.  A probe window (PrePostPair.window_value) reads the
pair's records; the dwell clock (dwell_time, transmitted_dwell_time) is the
window [0, T] over step 0 plus the record steps.  The dwell reads one
forward leg and no backward one.  Beside the state the leg carries a source
row that gains w_j * region * psi(t_j) at each node t_j, w_j its trapezoid
weight; projecting the final state then gives the trapezoid of the
conditional region weight as Re <P psi(T)|source(T)> / <P psi(T)|psi(T)>.
Every projector an engine is handed, post-selection or region, must live on
the grid of the prepared state; anything else is refused before the first
step.

The post-selection probability enters as a denominator, so each engine
checks it once against a floor (OVERLAP_FLOOR, 1e-12) below which
conditional values are numerically meaningless.  Unitarity pins a pair's
<bra(t)|ket(t)> to that probability at every recorded time; a relative
drift beyond 1e-6 means the two legs are no longer adjoint and the pair is
refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Grid, BarrierSpec, RegionProjector, WaveFunction
from .errors import ConfigError, OverlapFloorError, SchemeInstabilityError
from .tdse import PropagatorConfig, propagate, propagate_backward, propagate_with_source

__all__ = [
    "OVERLAP_FLOOR",
    "same_instant",
    "window_nodes",
    "PrePostPair",
    "BarrierOccupation",
    "weak_value",
    "weak_moment",
    "make_pair",
    "transmitted_pair",
    "ConditionalDwell",
    "dwell_time",
    "transmitted_dwell_time",
    "barrier_occupation",
]

OVERLAP_FLOOR = 1e-12


def _check_floor(prob: float) -> None:
    if prob < OVERLAP_FLOOR:
        raise OverlapFloorError(
            f"post-selection probability <i|P|i> = {prob:.3e} < {OVERLAP_FLOOR:.3e}"
        )


def _check_region(region: RegionProjector, grid: Grid, role: str) -> None:
    if not isinstance(region, RegionProjector) or region.grid != grid:
        raise ConfigError(f"{role} must be a RegionProjector on the grid {grid}")


def same_instant(a, b):
    """Whether times a and b name the same instant: they differ by at most
    1e-9 times the larger of 1, |a| and |b|.  Elementwise on arrays."""
    return np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def window_nodes(times, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the nodes in [t1, t2] and their trapezoid weights.

    The window must start and end on nodes, each end the same instant as its
    node by same_instant, and hold at least two of them.
    """
    t = np.asarray(times, dtype=float)
    t1, t2 = window
    at_t1, at_t2 = same_instant(t, t1), same_instant(t, t2)
    index = np.flatnonzero(((t >= t1) & (t <= t2)) | at_t1 | at_t2)
    if index.size < 2 or not (at_t1[index[0]] and at_t2[index[-1]]):
        raise ConfigError(
            f"window {window} must start and end on recorded times and hold at least two"
        )
    gaps = np.diff(t[index])
    return index, 0.5 * (np.append(gaps, 0.0) + np.insert(gaps, 0, 0.0))


def weak_value(op, pre, post) -> complex:
    """<post|op|pre> / <post|pre>; complex in general.

    pre/post are complex vectors and op a matrix acting on them, e.g. spin
    states and a spin operator.  Both states must refer to the same instant.
    """
    return weak_moment(op, 1, pre, post)


def weak_moment(op, n: int, pre, post) -> complex:
    """n-th conditional moment <post|op^n|pre> / <post|pre>."""
    if n < 1:
        raise ConfigError(f"moment order must be >= 1, got {n}")
    overlap = complex(np.vdot(post, pre))
    _check_floor(abs(overlap) ** 2)
    state = pre
    for _ in range(n):
        state = np.asarray(op) @ state
    return complex(np.vdot(post, state)) / overlap


@dataclass(frozen=True)
class PrePostPair:
    """A preparation at t=0, a post-selection at the duration, and their history.

    ``postselect_prob`` is the probability <i|U^dag P U|i> that the
    post-selection P succeeds on the prepared state i.  At each recorded
    time t, with ket U(t)|i> and bra U(t - duration) P U(duration)|i>,
    unitarity pins <bra|ket> to ``postselect_prob``, and the read-only
    (records, n) array ``values`` holds conj(bra) * ket / <bra|ket>: the
    conditional value of each cell projector, in units of 1/length, so that
    each row times dx sums to one.
    """

    grid: Grid
    postselect_prob: float
    times: tuple[float, ...]
    values: np.ndarray

    def window_value(self, region: RegionProjector, window: tuple[float, float]) -> complex:
        """Complex conditional value of the region projector averaged over the
        window: the trapezoid over the records in it, divided by its length.
        The region must live on the pair's grid."""
        _check_region(region, self.grid, "probe region")
        index, weights = window_nodes(self.times, window)
        sums = np.sum(self.values[index][:, region.mask], axis=1)
        return complex(np.dot(weights, sums) * self.grid.dx / weights.sum())


def _transmission(grid: Grid, barrier: BarrierSpec, cut: float) -> RegionProjector:
    """The projector onto x >= cut."""
    if not barrier.x_right < cut < grid.x_max:
        raise ConfigError(
            f"transmission cut {cut} must lie between the barrier exit "
            f"{barrier.x_right} and the domain edge {grid.x_max}"
        )
    return RegionProjector(grid, cut, grid.x_max)


def make_pair(initial: WaveFunction, post: RegionProjector, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None) -> PrePostPair:
    """Pair a preparation with the post-selection onto a region at the last
    record, recording their history at cfg.record_times.

    Runs the forward leg once, projects its last state with post, and runs
    the backward leg from the projected state, n_steps - j steps back to
    each record j.  The post-selection probability is the norm squared of
    post U(duration)|initial>; post-selecting on the whole domain gives the
    unconditioned history.
    """
    _check_region(post, initial.grid, "post-selection")
    fwd = propagate(initial, cfg, barrier)
    projected = post.apply(fwd[-1])
    prob = projected.norm() ** 2
    _check_floor(prob)

    back = tuple(cfg.n_steps - j for j in reversed(cfg.record_steps))
    bwd = propagate_backward(projected, replace(cfg, record_steps=back), barrier)
    values = np.empty((len(fwd), initial.grid.n), dtype=complex)
    for j, (t, ket, bra) in enumerate(zip(cfg.record_times, fwd, reversed(bwd))):
        record_overlap = bra.inner(ket)
        _check_floor(abs(record_overlap))
        drift = abs(record_overlap - prob) / prob
        if drift > 1e-6:
            raise SchemeInstabilityError(
                f"post-selection overlap drifted by {drift:.3e} at t={t}; "
                "forward and backward evolutions are no longer adjoint"
            )
        values[j] = np.conj(bra.amp) * ket.amp / record_overlap
    values.flags.writeable = False
    return PrePostPair(initial.grid, prob, cfg.record_times, values)


def transmitted_pair(initial: WaveFunction, cfg: PropagatorConfig,
                     barrier: BarrierSpec, cut: float) -> PrePostPair:
    """Post-select on transmission: project the evolved state onto x >= cut.

    The cut should sit beyond the barrier exit by a couple of packet widths so
    the projector does not clip barrier-edge structure.  The pair's
    postselect_prob is the probability of finding the particle beyond the cut.
    """
    return make_pair(initial, _transmission(initial.grid, barrier, cut), cfg, barrier)


@dataclass(frozen=True)
class BarrierOccupation:
    """Per-time conditional weight near the barrier faces and at its center.

    entrance/exit are magnitude integrals over windows one third of the
    barrier width to either side of each face (the fringe trains live
    there); center is the signed weight of the middle third of the barrier
    interior, where a thick barrier admits no fringes.
    """

    times: tuple[float, ...]
    entrance: np.ndarray
    center: np.ndarray
    exit: np.ndarray

    def center_to_peak(self) -> float:
        """max_t |center| relative to the peak entrance+exit weight."""
        peak = float(np.max(self.entrance + self.exit))
        return float(np.max(np.abs(self.center)) / peak)


def barrier_occupation(pair: PrePostPair, barrier: BarrierSpec) -> BarrierOccupation:
    """Reduce a pair's conditional values to face/center weights per time.

    The real part oscillates through zero wherever counter-propagating
    components interfere, so the signed weight of a face window that holds a
    fringe train flaps with the fringe alignment; the magnitude integral
    tracks the envelope.
    """
    a, b = barrier.x_left, barrier.x_right
    third = (b - a) / 3.0
    x, dx = pair.grid.x, pair.grid.dx
    re = pair.values.real

    def cells(lo: float, hi: float) -> np.ndarray:
        # compress keeps C order, so each row sums as the 1-D row would
        return np.compress((x >= lo) & (x < hi), re, axis=1)

    return BarrierOccupation(
        times=pair.times,
        entrance=np.sum(np.abs(cells(a - third, a + third)), axis=1) * dx,
        center=np.sum(cells(a + third, b - third), axis=1) * dx,
        exit=np.sum(np.abs(cells(b - third, b + third)), axis=1) * dx,
    )


@dataclass(frozen=True)
class ConditionalDwell:
    """Conditional dwell time of a region, with what it was integrated over.

    ``time`` is the trapezoid over ``times`` (t=0 and the record times) of
    the real part of the region projector's conditional value;
    ``postselect_prob`` is the probability that the post-selection succeeds.
    """

    time: float
    postselect_prob: float
    times: tuple[float, ...]


def dwell_time(initial: WaveFunction, post: RegionProjector, cfg: PropagatorConfig,
               region: RegionProjector, barrier: BarrierSpec | None = None) -> ConditionalDwell:
    """Time integral of Re of the conditional region weight over [0, duration],
    from one forward leg that carries a source row.

    The trapezoid rule runs over step 0 and cfg.record_steps.  The leg adds
    w_j * region * psi(t_j) to the source row at each node t_j, with w_j the
    trapezoid weights of the nodes, so at the duration the row is phi = sum_j
    w_j U(T - t_j) region psi(t_j), and with the projected state post psi(T)
    as bra, <post psi|phi> / <post psi|psi(T)> is the trapezoid of the
    conditional region value without a backward leg.  Post-selecting on the
    whole domain gives the ordinary sojourn time integral of the region
    probability; with region = whole domain it returns the duration.
    """
    _check_region(post, initial.grid, "post-selection")
    _check_region(region, initial.grid, "dwell region")
    steps = cfg.record_steps
    nodes = replace(cfg, record_steps=steps if steps[0] == 0 else (0,) + steps)
    times = nodes.record_times
    _, weights = window_nodes(times, (0.0, nodes.duration))
    states, source = propagate_with_source(initial, nodes, barrier, region.mask, weights)
    evolved = states[-1]
    projected = post.apply(evolved)
    prob = projected.norm() ** 2
    _check_floor(prob)
    return ConditionalDwell(float((projected.inner(source) / projected.inner(evolved)).real),
                            prob, times)


def transmitted_dwell_time(initial: WaveFunction, cfg: PropagatorConfig,
                           barrier: BarrierSpec, cut: float, region: RegionProjector,
                           ) -> ConditionalDwell:
    """dwell_time of the region for the subensemble found beyond the cut.

    The post-selection is transmitted_pair's.
    """
    return dwell_time(initial, _transmission(initial.grid, barrier, cut), cfg, region, barrier)
