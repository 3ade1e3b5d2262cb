"""Gaussian detector pointers and impulsive weak probes.

A detector register is a Gaussian wave function

    G(c, sigma) = (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2)),

where sigma is the standard deviation of |G|^2, so <x> = c and <x^2> - c^2
= sigma^2.  Joint two-detector states are kept as superpositions of product
branches G_A(a_j) G_B(b_j), each branch optionally tagged with the particle
state it is entangled with; branches with different tags add incoherently in
every observable.  The representation covers the unshifted product, the
which-path entangled state, its erased (post-selected) form, and the
first-order states produced by a pair of weak probes, and it supports both
closed-form moments from displaced-Gaussian integrals and a brute-force
2-D quadrature used to validate them.

Probes couple impulsively: a probe with strength delta acting over a time
window displaces its pointer, to first order in delta, by delta times the
time-averaged conditional (weak) value of the target projector over that
window.  Nothing here co-propagates pointer and particle beyond first order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RegionProjector
from .errors import ConfigError, QuadratureError
from .weakval import PrePostPair

__all__ = [
    "PointerState",
    "JointPointerState",
    "WeakProbe",
    "TwoProbeRun",
    "shift_pointer",
    "pointer_overlap",
    "which_path_state",
    "erase_and_postselect",
    "certain_shift_state",
    "difference_variance",
    "two_probe_run",
]

WEAKNESS_WARNING_RATIO = 0.5


def _gauss(x: np.ndarray, center: float, sigma: float) -> np.ndarray:
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    return norm * np.exp(-((x - center) ** 2) / (4.0 * sigma**2))


# Displaced-Gaussian integrals.  With m = (c1 + c2)/2 the product
# G(c1) G(c2) is exp(-(c1-c2)^2/8 sigma^2) times a normalized Gaussian
# density of mean m and variance sigma^2, which gives the first three
# moments in closed form.

def _overlap(c1: float, c2: float, sigma: float) -> float:
    return float(np.exp(-((c1 - c2) ** 2) / (8.0 * sigma**2)))


def _moment1(c1: float, c2: float, sigma: float) -> float:
    return _overlap(c1, c2, sigma) * 0.5 * (c1 + c2)


def _moment2(c1: float, c2: float, sigma: float) -> float:
    m = 0.5 * (c1 + c2)
    return _overlap(c1, c2, sigma) * (sigma**2 + m * m)


@dataclass(frozen=True)
class PointerState:
    """A single Gaussian register at ``center`` with |G|^2 width ``sigma``."""

    center: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigError(f"pointer sigma must be positive, got {self.sigma}")

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        return _gauss(x, self.center, self.sigma)

    def overlap(self, other: "PointerState") -> float:
        if other.sigma != self.sigma:
            raise ConfigError("overlap of unequal-width pointers is not needed here")
        return _overlap(self.center, other.center, self.sigma)

    def moments_by_quadrature(self, n: int = 2048, span: float = 12.0) -> tuple[float, float]:
        """(mean, variance) integrated on a grid; oracle for the closed forms."""
        half = span * self.sigma + abs(self.center)
        x = np.linspace(-half, half, n)
        rho = self.amplitude(x) ** 2
        z = np.trapezoid(rho, x)
        mean = np.trapezoid(x * rho, x) / z
        var = np.trapezoid((x - mean) ** 2 * rho, x) / z
        return float(mean), float(var)


def shift_pointer(p: PointerState, amount: float) -> PointerState:
    return PointerState(p.center + amount, p.sigma)


def pointer_overlap(delta: float, sigma: float) -> float:
    """<G(0,sigma)|G(delta,sigma)> = exp(-delta^2 / 8 sigma^2)."""
    return _overlap(0.0, delta, sigma)


@dataclass(frozen=True)
class JointPointerState:
    """Superposition of product branches over the two pointer coordinates.

    branches holds (coeff, a_center, b_center, tag).  Tags record which
    orthogonal particle state a branch rides on; cross terms between
    different tags drop out of every pointer observable.  A state whose
    branches all share one tag is an ordinary pure two-mode wave function.
    """

    sigma: float
    branches: tuple[tuple[complex, float, float, int], ...]
    postselect_prob: float | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigError(f"pointer sigma must be positive, got {self.sigma}")
        if not self.branches:
            raise ConfigError("joint state needs at least one branch")

    def _pairs(self):
        for cj, aj, bj, tj in self.branches:
            for ck, ak, bk, tk in self.branches:
                if tj == tk:
                    yield np.conj(cj) * ck, (aj, ak), (bj, bk)

    def norm_squared(self) -> float:
        s = self.sigma
        total = 0.0
        for w, (aj, ak), (bj, bk) in self._pairs():
            total += (w * _overlap(aj, ak, s) * _overlap(bj, bk, s)).real
        return float(total)

    def moment(self, pow_a: int, pow_b: int) -> float:
        """<x_A^pow_a x_B^pow_b> for powers 0..2, from the Gaussian integrals."""
        table = {0: _overlap, 1: _moment1, 2: _moment2}
        fa, fb = table[pow_a], table[pow_b]
        s = self.sigma
        total = 0.0
        for w, (aj, ak), (bj, bk) in self._pairs():
            total += (w * fa(aj, ak, s) * fb(bj, bk, s)).real
        return float(total) / self.norm_squared()

    def mean_a(self) -> float:
        return self.moment(1, 0)

    def mean_b(self) -> float:
        return self.moment(0, 1)

    def var_a(self) -> float:
        return self.moment(2, 0) - self.mean_a() ** 2

    def var_b(self) -> float:
        return self.moment(0, 2) - self.mean_b() ** 2

    def joint_density(self, n: int, half_span: float) -> tuple[np.ndarray, np.ndarray]:
        """(x, rho) on an n x n grid over [-half_span, half_span]^2.

        rho sums |psi_tag|^2 over tags, i.e. the reduced density of the
        pointers after tracing out the particle.
        """
        x = np.linspace(-half_span, half_span, n)
        rho = np.zeros((n, n))
        tags = {t for _, _, _, t in self.branches}
        for tag in tags:
            psi = np.zeros((n, n), dtype=complex)
            for c, a, b, t in self.branches:
                if t == tag:
                    psi += c * np.outer(_gauss(x, a, self.sigma),
                                        _gauss(x, b, self.sigma))
            rho += np.abs(psi) ** 2
        return x, rho

    def moment_report(self) -> dict:
        """The fixed-key JSON object other modules consume."""
        return {
            "mean_a": self.mean_a(),
            "mean_b": self.mean_b(),
            "var_a": self.var_a(),
            "var_b": self.var_b(),
            "var_diff": difference_variance(self),
            "postselect_prob": self.postselect_prob,
        }


def which_path_state(delta: float, sigma: float) -> JointPointerState:
    """Entangled state: detector A fires on one path, B on the other.

    Each pointer mean sits at delta/2, the difference mean stays 0, and
    Var(x_A - x_B) grows to 2 sigma^2 + delta^2.
    """
    coeff = 1.0 / np.sqrt(2.0)
    return JointPointerState(
        sigma=sigma,
        branches=((coeff, delta, 0.0, 0), (coeff, 0.0, delta, 1)),
    )


def _is_which_path(state: JointPointerState) -> bool:
    if len(state.branches) != 2:
        return False
    (c1, a1, b1, t1), (c2, a2, b2, t2) = state.branches
    if t1 == t2:
        return False
    same_coeff = abs(c1 - c2) <= 1e-12 and abs(abs(c1) - 1.0 / np.sqrt(2.0)) <= 1e-12
    crossed = a1 == b2 and b1 == a2 and b1 == 0.0
    return same_coeff and crossed


def erase_and_postselect(state: JointPointerState) -> JointPointerState:
    """Project the particle back onto the symmetric superposition of paths.

    The branches become coherent, normalized by K = [2(1 + c^2)]^(-1/2)
    with c^2 the squared modulus of the shifted/unshifted pointer overlap.
    The post-selection succeeds with probability (1 + c^2)/2, recorded on
    the returned state.
    """
    if not _is_which_path(state):
        raise ConfigError("erasure needs a which-path state with distinct path tags")
    (_, delta, _, _), _ = state.branches
    s = state.sigma
    c_sq = _overlap(0.0, delta, s) ** 2
    k = (2.0 * (1.0 + c_sq)) ** -0.5
    return JointPointerState(
        sigma=s,
        branches=((k, delta, 0.0, 0), (k, 0.0, delta, 0)),
        postselect_prob=0.5 * (1.0 + c_sq),
    )


def certain_shift_state(delta_a: float, delta_b: float, sigma: float) -> JointPointerState:
    """Product state with both pointers definitely shifted.

    Independence keeps Var(x_A - x_B) at 2 sigma^2 no matter the shifts.
    """
    return JointPointerState(sigma=sigma,
                             branches=((1.0 + 0.0j, delta_a, delta_b, 0),))


# Quadrature refinement ladder: (points per axis, half-span in sigmas beyond
# the farthest branch center).  The coarse rung matches the documented
# default grid; later rungs both widen and refine so truncated tails and
# discretization shrink together.
_QUAD_LADDER = ((512, 8.0), (1024, 12.0), (2048, 16.0))


def difference_variance(state: JointPointerState, tol: float = 1e-8) -> float:
    """Var(x_A - x_B) by 2-D quadrature, refined until stable.

    The closed-form branch algebra is evaluated alongside as a consistency
    check; disagreement or failure to stabilize raises QuadratureError.
    """
    reach = max(max(abs(a), abs(b)) for _, a, b, _ in state.branches)
    results = []
    for n, span_sigmas in _QUAD_LADDER:
        half = span_sigmas * state.sigma + reach
        x, rho = state.joint_density(n, half)
        z = np.trapezoid(np.trapezoid(rho, x, axis=1), x)
        diff = x[:, None] - x[None, :]
        mean = np.trapezoid(np.trapezoid(diff * rho, x, axis=1), x) / z
        var = np.trapezoid(np.trapezoid((diff - mean) ** 2 * rho, x, axis=1), x) / z
        results.append(var)
        if len(results) >= 2 and abs(results[-1] - results[-2]) <= tol * max(1.0, abs(var)):
            analytic = (state.moment(2, 0) - 2.0 * state.moment(1, 1)
                        + state.moment(0, 2)
                        - (state.mean_a() - state.mean_b()) ** 2)
            if abs(var - analytic) > 100.0 * tol * max(1.0, abs(var)):
                raise QuadratureError(
                    f"quadrature variance {var!r} disagrees with the closed "
                    f"form {analytic!r}"
                )
            return float(var)
    raise QuadratureError(
        f"difference variance failed to stabilize at {tol:g}: ladder gave {results}"
    )


@dataclass(frozen=True)
class WeakProbe:
    """An impulsive von Neumann probe of a region during a time window."""

    target: RegionProjector
    delta: float
    window: tuple[float, float]
    sign: int = 1

    def __post_init__(self) -> None:
        t1, t2 = self.window
        if not t1 < t2:
            raise ConfigError(f"probe window {self.window} must have t1 < t2")
        if self.sign not in (-1, 1):
            raise ConfigError(f"probe sign must be +1 or -1, got {self.sign}")
        if self.delta <= 0:
            raise ConfigError(f"probe strength must be positive, got {self.delta}")


@dataclass(frozen=True)
class TwoProbeRun:
    """Outcome of a two-probe weak measurement on one pre/post-selected pair.

    Mean shifts are first order in the probe strengths; the joint state is
    the corresponding product of shifted pointers (exactly normalized).
    window_values holds the complex time-averaged conditional projector
    values the shifts derive from; net_rotation is the signed sum of the
    first-order kicks, which cancels for equal-strength opposite-sign
    probes of the same window and region.
    """

    state: JointPointerState
    mean_shift_a: float
    mean_shift_b: float
    window_values: tuple[complex, complex]
    net_rotation: float
    postselect_prob: float

    def moment_report(self) -> dict:
        report = self.state.moment_report()
        report["postselect_prob"] = self.postselect_prob
        return report


def _window_average(times: np.ndarray, values: np.ndarray,
                    window: tuple[float, float]) -> complex:
    t1, t2 = window
    inside = (times >= t1 - 1e-12) & (times <= t2 + 1e-12)
    if np.count_nonzero(inside) < 2:
        raise ConfigError(
            f"probe window {window} covers fewer than two recorded times"
        )
    tw = times[inside]
    if abs(tw[0] - t1) > 1e-9 or abs(tw[-1] - t2) > 1e-9:
        raise ConfigError(
            f"probe window {window} must start and end on recorded times"
        )
    return complex(np.trapezoid(values[inside], tw) / (tw[-1] - tw[0]))


def two_probe_run(pair: PrePostPair, probe_a: WeakProbe, probe_b: WeakProbe,
                  pointer_sigma: float) -> TwoProbeRun:
    """Apply two weak probes to one particle and read the pointers.

    Each probe displaces its pointer by sign * delta * Re[avg], where avg is
    the conditional value of its target projector averaged over its window
    under the pair's pre- and post-selection.  Windows must start and end on
    the pair's recorded times; shifts are first order in delta, so the joint
    state is a plain product of displaced Gaussians and the difference
    variance stays at its product value.
    """
    for probe in (probe_a, probe_b):
        t1, t2 = probe.window
        if t1 < 0.0 or t2 > pair.duration + 1e-12:
            raise ConfigError(f"probe window {probe.window} falls outside the run")
        ratio = probe.delta / pointer_sigma
        if ratio > WEAKNESS_WARNING_RATIO:
            warnings.warn(
                f"probe strength delta/sigma = {ratio:.3g} is not weak; "
                "first-order pointer readout is unreliable",
                stacklevel=2,
            )

    times = np.array(pair.times)
    value_a, value_b = (_window_average(times, pair.region_weights(probe.target),
                                        probe.window)
                        for probe in (probe_a, probe_b))
    shift_a = probe_a.sign * probe_a.delta * value_a.real
    shift_b = probe_b.sign * probe_b.delta * value_b.real
    state = JointPointerState(
        sigma=pointer_sigma,
        branches=((1.0 + 0.0j, shift_a, shift_b, 0),),
    )
    return TwoProbeRun(
        state=state,
        mean_shift_a=shift_a,
        mean_shift_b=shift_b,
        window_values=(value_a, value_b),
        net_rotation=shift_a + shift_b,
        postselect_prob=abs(pair.overlap) ** 2,
    )
