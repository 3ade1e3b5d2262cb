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

Every conditional observable reads one history per pre/post pair.  Building
a pair (make_pair for an explicit final state, transmitted_pair for
post-selection on transmission) runs the forward leg from |i> once, takes the
post-selected state from its last snapshot, and runs the backward leg from
<f| once.  The pair keeps the forward kets, the backward bras and their
overlaps at every recorded time.  The conditional distribution, the dwell
clock and the probe shifts of pointer.two_probe_run are reductions of that
stored history, so whoever builds the pair fixes the time resolution of all
of them.

The post-selection overlap enters as a denominator, so pairs are guarded by
a floor on |<f|i>|^2 (default 1e-12) below which conditional values are
numerically meaningless.  Unitarity pins <f(t)|i(t)> to <f|U|i> at every
recorded time; a relative drift beyond 1e-6 means the two legs are no longer
adjoint and the pair is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Grid, BarrierSpec, RegionProjector, WaveFunction, region_projector
from .errors import ConfigError, OverlapFloorError, SchemeInstabilityError
from .tdse import (EDGE_PROBABILITY_LIMIT, PropagatorConfig, propagate,
                   propagate_backward)

__all__ = [
    "OVERLAP_FLOOR",
    "PrePostPair",
    "ConditionalDistribution",
    "BarrierOccupation",
    "weak_value",
    "weak_moment",
    "make_pair",
    "transmitted_pair",
    "conditional_distribution",
    "conditional_dwell_time",
    "barrier_occupation",
]

OVERLAP_FLOOR = 1e-12


def _check_floor(overlap: complex, floor: float) -> None:
    if abs(overlap) ** 2 < floor:
        raise OverlapFloorError(
            f"post-selection overlap too small: |<f|i>|^2 = {abs(overlap)**2:.3e} < {floor:.3e}"
        )


def _inner(f, i) -> complex:
    if isinstance(f, WaveFunction):
        return f.inner(i)
    return complex(np.vdot(f, i))


def _apply(op, state):
    if isinstance(state, WaveFunction):
        return op.apply(state)
    return np.asarray(op) @ state


def weak_value(op, pre, post, floor: float = OVERLAP_FLOOR) -> complex:
    """<post|op|pre> / <post|pre>; complex in general.

    pre/post are either plain complex vectors (spin states, with op a matrix)
    or WaveFunction instances (with op exposing .apply, e.g. RegionProjector).
    Both states must refer to the same instant.
    """
    return weak_moment(op, 1, pre, post, floor)


def weak_moment(op, n: int, pre, post, floor: float = OVERLAP_FLOOR) -> complex:
    """n-th conditional moment <post|op^n|pre> / <post|pre>."""
    if n < 1:
        raise ConfigError(f"moment order must be >= 1, got {n}")
    overlap = _inner(post, pre)
    _check_floor(overlap, floor)
    state = pre
    for _ in range(n):
        state = _apply(op, state)
    return _inner(post, state) / overlap


@dataclass(frozen=True)
class PrePostPair:
    """A preparation at t=0, a post-selection at t=duration, and their history.

    ``final`` is the post-selected state expressed at the post-selection time;
    ``overlap`` is <final| U(duration) |initial>.  At each recorded time t,
    ``kets`` holds U(t)|initial>, ``bras`` holds U(t - duration)|final> and
    ``overlaps`` their inner product, which unitarity pins to ``overlap``.
    ``postselect_prob`` is the probability that the post-selection succeeds.
    """

    initial: WaveFunction
    final: WaveFunction
    duration: float
    overlap: complex
    postselect_prob: float
    times: tuple[float, ...]
    kets: tuple[WaveFunction, ...]
    bras: tuple[WaveFunction, ...]
    overlaps: tuple[complex, ...]

    def region_weights(self, region: RegionProjector) -> np.ndarray:
        """Complex conditional value of the region projector at every record."""
        mask = region.mask
        dx = self.initial.grid.dx
        return np.array([np.sum(np.conj(bra.amp[mask]) * ket.amp[mask]) * dx / overlap
                         for ket, bra, overlap in zip(self.kets, self.bras, self.overlaps)])


def _build_pair(initial: WaveFunction, cfg: PropagatorConfig,
                barrier: BarrierSpec | None, floor: float,
                postselect: Callable[[WaveFunction], tuple[WaveFunction, float]],
                ) -> PrePostPair:
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
    duration = cfg.duration
    records = cfg.record_times
    tail = (duration,) if round(records[-1] / cfg.dt) < cfg.n_steps else ()
    fwd = propagate(initial, replace(cfg, record_times=records + tail), barrier)
    evolved = fwd[-1].psi
    final, prob = postselect(evolved)
    overlap = final.inner(evolved)
    _check_floor(overlap, floor)

    back_cfg = replace(cfg, record_times=tuple(duration - t for t in reversed(records)))
    back_limit = EDGE_PROBABILITY_LIMIT / min(1.0, abs(overlap) ** 2)
    bwd = propagate_backward(final, back_cfg, barrier, edge_limit=back_limit)
    times, kets, bras, overlaps = [], [], [], []
    for (t, ket), (tau, bra) in zip(fwd, reversed(bwd)):
        if abs((duration - tau) - t) > 1e-9 * max(1.0, duration):
            raise ConfigError("forward and backward record times failed to line up")
        record_overlap = bra.inner(ket)
        _check_floor(record_overlap, floor)
        drift = abs(record_overlap - overlap) / abs(overlap)
        if drift > 1e-6:
            raise SchemeInstabilityError(
                f"post-selection overlap drifted by {drift:.3e} at t={t}; "
                "forward and backward evolutions are no longer adjoint"
            )
        times.append(t)
        kets.append(ket)
        bras.append(bra)
        overlaps.append(record_overlap)
    return PrePostPair(initial, final, duration, overlap, prob, tuple(times),
                       tuple(kets), tuple(bras), tuple(overlaps))


def make_pair(initial: WaveFunction, final: WaveFunction, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None,
              floor: float = OVERLAP_FLOOR) -> PrePostPair:
    """Pair explicit unit-norm states, recording their history at cfg.record_times.

    The post-selection probability is |<final|U(duration)|initial>|^2.
    """
    def postselect(evolved: WaveFunction) -> tuple[WaveFunction, float]:
        return final, abs(final.inner(evolved)) ** 2

    return _build_pair(initial, cfg, barrier, floor, postselect)


def transmitted_pair(initial: WaveFunction, cfg: PropagatorConfig,
                     barrier: BarrierSpec, cut: float,
                     floor: float = OVERLAP_FLOOR) -> PrePostPair:
    """Post-select on transmission: project the evolved state onto x >= cut.

    The cut should sit beyond the barrier exit by a couple of packet widths so
    the projector does not clip barrier-edge structure.  The pair's
    postselect_prob is the probability of finding the particle beyond the cut.
    """
    grid = initial.grid
    if not barrier.x_right < cut < grid.x_max:
        raise ConfigError(
            f"transmission cut {cut} must lie between the barrier exit "
            f"{barrier.x_right} and the domain edge {grid.x_max}"
        )

    def postselect(evolved: WaveFunction) -> tuple[WaveFunction, float]:
        projected = region_projector(grid, cut, grid.x_max).apply(evolved)
        prob = projected.norm() ** 2
        if prob < floor:
            raise OverlapFloorError(
                f"transmission probability {prob:.3e} below the overlap floor {floor:.3e}"
            )
        return projected.normalized(), float(prob)

    return _build_pair(initial, cfg, barrier, floor, postselect)


@dataclass(frozen=True)
class ConditionalDistribution:
    """Re/Im of the cell-projector conditional values on (times x grid).

    values[j, :] has units 1/length; sum(values[j] * dx) = 1 at every time.
    """

    grid: Grid
    times: tuple[float, ...]
    re: np.ndarray
    im: np.ndarray

    def norm_per_time(self) -> np.ndarray:
        return np.sum(self.re, axis=1) * self.grid.dx

    def integrate_region(self, a: float, b: float, time_index: int) -> float:
        """Signed conditional weight of the half-open region [a, b) at one time."""
        mask = (self.grid.x >= a) & (self.grid.x < b)
        return float(np.sum(self.re[time_index, mask]) * self.grid.dx)

    def region_magnitude(self, a: float, b: float, time_index: int) -> float:
        """Unsigned conditional weight of [a, b) at one time.

        The real part oscillates through zero wherever counter-propagating
        components interfere, so the signed integral of a window that holds a
        fringe train flaps with the fringe alignment while the magnitude
        integral tracks the envelope.
        """
        mask = (self.grid.x >= a) & (self.grid.x < b)
        return float(np.sum(np.abs(self.re[time_index, mask])) * self.grid.dx)


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


def barrier_occupation(dist: ConditionalDistribution,
                       barrier: BarrierSpec) -> BarrierOccupation:
    """Reduce a conditional distribution to face/center weights per time."""
    a, b = barrier.x_left, barrier.x_right
    third = (b - a) / 3.0
    n = len(dist.times)
    entrance = np.empty(n)
    center = np.empty(n)
    exit_ = np.empty(n)
    for j in range(n):
        entrance[j] = dist.region_magnitude(a - third, a + third, j)
        center[j] = dist.integrate_region(a + third, b - third, j)
        exit_[j] = dist.region_magnitude(b - third, b + third, j)
    return BarrierOccupation(times=dist.times, entrance=entrance,
                             center=center, exit=exit_)


def conditional_distribution(pair: PrePostPair) -> ConditionalDistribution:
    """Conditional position distribution at every recorded time of the pair."""
    grid = pair.initial.grid
    re = np.empty((len(pair.times), grid.n))
    im = np.empty_like(re)
    for row, (ket, bra, overlap) in enumerate(zip(pair.kets, pair.bras, pair.overlaps)):
        w = np.conj(bra.amp) * ket.amp / overlap
        re[row] = w.real
        im[row] = w.imag
    return ConditionalDistribution(grid=grid, times=pair.times, re=re, im=im)


def conditional_dwell_time(pair: PrePostPair, region: RegionProjector) -> float:
    """Time integral of Re of the conditional region weight over [0, duration].

    The trapezoid rule runs over the pair's recorded times, which must start
    at 0 and end at the duration; whoever builds the pair chooses the time
    resolution.  With the full evolved state as post-selection this reduces
    to the ordinary sojourn time integral of the region probability; with
    region = whole domain it returns the duration exactly.
    """
    times = pair.times
    if times[0] != 0.0 or abs(times[-1] - pair.duration) > 1e-9 * max(1.0, pair.duration):
        raise ConfigError("dwell integration needs record_times spanning [0, duration]")
    return float(np.trapezoid(pair.region_weights(region).real, times))
