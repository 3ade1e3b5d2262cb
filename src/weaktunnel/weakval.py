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
of pointer.two_probe_run read one history per pre/post pair.  Building a
pair (make_pair for an explicit final state, transmitted_pair for
post-selection on transmission) runs the forward leg from |i> once, takes
the post-selected state from its last snapshot, and runs the backward leg
from <f| once.  At every recorded time the pair keeps the overlap and the
cell-projector conditional values conj(f(t)) i(t) / <f(t)|i(t)>, not the
states, so whoever builds the pair fixes the time resolution of its
readouts.

One window rule, window_nodes, serves every time integral of a conditional
value: a window [t1, t2] must start and end on nodes of the time grid, by
tdse.same_instant, and hold at least two, and the integral is the trapezoid
over the nodes inside it.  A probe window (PrePostPair.window_value) reads
the pair's records; the dwell clock (dwell_time, transmitted_dwell_time) is
the window [0, T] over t=0 plus the records.  The dwell reads one forward
leg and no backward one.  Beside the
state the leg carries a source row that gains w_j * region * psi(t_j) at each
node t_j, w_j its trapezoid weight; post-selecting f from the final state
then gives the trapezoid of the conditional region weight as
Re <f|source(T)> / <f|psi(T)>.  Both kinds of readout post-select through
the same two rules.

The post-selection overlap enters as a denominator, so it is guarded by a
floor on |<f|i>|^2 (OVERLAP_FLOOR, 1e-12) below which conditional values are
numerically meaningless.  Unitarity pins a pair's <f(t)|i(t)> to <f|U|i> at
every recorded time; a relative drift beyond 1e-6 means the two legs are no
longer adjoint and the pair is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Grid, BarrierSpec, RegionProjector, WaveFunction, region_projector
from .errors import ConfigError, OverlapFloorError, SchemeInstabilityError
from .tdse import (EDGE_PROBABILITY_LIMIT, PropagatorConfig, propagate,
                   propagate_backward, propagate_with_source, same_instant)

__all__ = [
    "OVERLAP_FLOOR",
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

# a post-selection maps the evolved state to the selected state and its probability
_Postselect = Callable[[WaveFunction], tuple[WaveFunction, float]]


def _check_floor(overlap: complex) -> None:
    if abs(overlap) ** 2 < OVERLAP_FLOOR:
        raise OverlapFloorError(
            f"post-selection overlap |<f|i>|^2 = {abs(overlap)**2:.3e} < {OVERLAP_FLOOR:.3e}"
        )


def window_nodes(times, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the nodes in [t1, t2] and their trapezoid weights.

    The window must start and end on nodes, each end the same instant as its
    node by tdse.same_instant, and hold at least two of them.
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
    _check_floor(overlap)
    state = pre
    for _ in range(n):
        state = np.asarray(op) @ state
    return complex(np.vdot(post, state)) / overlap


@dataclass(frozen=True)
class PrePostPair:
    """A preparation at t=0, a post-selection at the duration, and their history.

    ``overlap`` is <f| U(duration) |i> for the prepared state i and the
    post-selected state f, and ``postselect_prob`` the probability that the
    post-selection succeeds.  At each recorded time t, with ket U(t)|i> and
    bra U(t - duration)|f>, ``overlaps`` holds <bra|ket>, which unitarity
    pins to ``overlap``, and the read-only (records, n) array ``values``
    holds conj(bra) * ket / <bra|ket>: the conditional value of each cell
    projector, in units of 1/length, so that each row times dx sums to one.
    """

    grid: Grid
    overlap: complex
    postselect_prob: float
    times: tuple[float, ...]
    overlaps: tuple[complex, ...]
    values: np.ndarray

    def window_value(self, region: RegionProjector, window: tuple[float, float]) -> complex:
        """Complex conditional value of the region projector averaged over the
        window: the trapezoid over the records in it, divided by its length."""
        index, weights = window_nodes(self.times, window)
        sums = np.sum(self.values[index][:, region.mask], axis=1)
        return complex(np.dot(weights, sums) * self.grid.dx / weights.sum())


def _build_pair(initial: WaveFunction, cfg: PropagatorConfig,
                barrier: BarrierSpec | None, postselect: _Postselect) -> PrePostPair:
    """Run the forward leg once, post-select its last state, run the backward leg.

    The forward leg records cfg.record_times, plus the duration when the last
    record falls short of it.  The backward leg runs with the edge-density
    threshold divided by |overlap|^2.  Conditional values are invariant
    under rescaling the bra, so boundary contamination competes with the
    physics at the pre-projection amplitude scale, not at the unit norm the
    bra was renormalized to; a post-selected bra with success probability p
    may therefore carry up to 1e-8/p of relative edge weight before its
    history stops being trustworthy.
    """
    records, steps = cfg.record_times, cfg.record_steps
    tail = (cfg.duration,) if steps[-1] < cfg.n_steps else ()
    fwd = propagate(initial, replace(cfg, record_times=records + tail), barrier)
    evolved = fwd[-1].psi
    final, prob = postselect(evolved)
    overlap = final.inner(evolved)
    _check_floor(overlap)

    back_times = tuple((cfg.n_steps - j) * cfg.dt for j in reversed(steps))
    back_limit = EDGE_PROBABILITY_LIMIT / min(1.0, abs(overlap) ** 2)
    bwd = propagate_backward(final, replace(cfg, record_times=back_times), barrier,
                             edge_limit=back_limit)
    values = np.empty((len(records), initial.grid.n), dtype=complex)
    times, overlaps = [], []
    for j, ((t, ket), (_, bra)) in enumerate(zip(fwd, reversed(bwd))):
        record_overlap = bra.inner(ket)
        _check_floor(record_overlap)
        drift = abs(record_overlap - overlap) / abs(overlap)
        if drift > 1e-6:
            raise SchemeInstabilityError(
                f"post-selection overlap drifted by {drift:.3e} at t={t}; "
                "forward and backward evolutions are no longer adjoint"
            )
        values[j] = np.conj(bra.amp) * ket.amp / record_overlap
        times.append(t)
        overlaps.append(record_overlap)
    values.flags.writeable = False
    return PrePostPair(initial.grid, overlap, prob, tuple(times), tuple(overlaps), values)


def _onto(final: WaveFunction) -> _Postselect:
    """Post-select an explicit unit-norm state, with probability |<final|U|i>|^2."""
    def postselect(evolved: WaveFunction) -> tuple[WaveFunction, float]:
        return final, abs(final.inner(evolved)) ** 2

    return postselect


def _transmission(grid: Grid, barrier: BarrierSpec, cut: float) -> _Postselect:
    """Post-select on x >= cut, with the probability of finding the particle there."""
    if not barrier.x_right < cut < grid.x_max:
        raise ConfigError(
            f"transmission cut {cut} must lie between the barrier exit "
            f"{barrier.x_right} and the domain edge {grid.x_max}"
        )

    def postselect(evolved: WaveFunction) -> tuple[WaveFunction, float]:
        projected = region_projector(grid, cut, grid.x_max).apply(evolved)
        prob = projected.norm() ** 2
        if prob < OVERLAP_FLOOR:
            raise OverlapFloorError(
                f"transmission probability {prob:.3e} below the overlap floor "
                f"{OVERLAP_FLOOR:.3e}"
            )
        return projected.normalized(), float(prob)

    return postselect


def make_pair(initial: WaveFunction, final: WaveFunction, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None) -> PrePostPair:
    """Pair explicit unit-norm states, recording their history at cfg.record_times.

    The post-selection probability is |<final|U(duration)|initial>|^2.
    """
    return _build_pair(initial, cfg, barrier, _onto(final))


def transmitted_pair(initial: WaveFunction, cfg: PropagatorConfig,
                     barrier: BarrierSpec, cut: float) -> PrePostPair:
    """Post-select on transmission: project the evolved state onto x >= cut.

    The cut should sit beyond the barrier exit by a couple of packet widths so
    the projector does not clip barrier-edge structure.  The pair's
    postselect_prob is the probability of finding the particle beyond the cut.
    """
    return _build_pair(initial, cfg, barrier, _transmission(initial.grid, barrier, cut))


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


def _forward_dwell(initial: WaveFunction, cfg: PropagatorConfig,
                   barrier: BarrierSpec | None, region: RegionProjector,
                   postselect: _Postselect) -> ConditionalDwell:
    """The dwell of the region from one forward leg that carries a source row.

    The leg adds w_j * region * psi(t_j) to the source row at each node t_j,
    with w_j the trapezoid weights of the nodes, so at the duration the row
    is phi = sum_j w_j U(T - t_j) region psi(t_j), and
    <f|phi> / <f|psi(T)> = sum_j w_j <f(t_j)|region|psi(t_j)> / <f|U|i>: the
    trapezoid of the conditional region value without a backward leg.
    """
    records = cfg.record_times
    times = records if cfg.record_steps[0] == 0 else (0.0,) + records
    _, weights = window_nodes(times, (0.0, cfg.duration))
    snaps, source = propagate_with_source(initial, replace(cfg, record_times=times),
                                          barrier, region.mask, weights)
    evolved = snaps[-1].psi
    final, prob = postselect(evolved)
    overlap = final.inner(evolved)
    _check_floor(overlap)
    return ConditionalDwell(float((final.inner(source) / overlap).real), prob, times)


def dwell_time(initial: WaveFunction, final: WaveFunction, cfg: PropagatorConfig,
               region: RegionProjector, barrier: BarrierSpec | None = None) -> ConditionalDwell:
    """Time integral of Re of the conditional region weight over [0, duration].

    The trapezoid rule runs over t=0 and cfg.record_times, which must end at
    the duration.  With the full evolved state as post-selection this is the
    ordinary sojourn time integral of the region probability; with region =
    whole domain it returns the duration.
    """
    return _forward_dwell(initial, cfg, barrier, region, _onto(final))


def transmitted_dwell_time(initial: WaveFunction, cfg: PropagatorConfig,
                           barrier: BarrierSpec, cut: float, region: RegionProjector,
                           ) -> ConditionalDwell:
    """dwell_time of the region for the subensemble found beyond the cut.

    The post-selection is transmitted_pair's.
    """
    return _forward_dwell(initial, cfg, barrier, region,
                          _transmission(initial.grid, barrier, cut))
