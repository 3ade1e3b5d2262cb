"""Gaussian detector pointers and impulsive weak probes.

A detector register is a Gaussian wave function

    G(c, sigma) = (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2)),

where sigma is the standard deviation of |G|^2, so <x> = c and <x^2> - c^2
= sigma^2.  A joint two-detector state is a superposition of product
branches G_A(a_j) G_B(b_j) (x) |p_j>, with |p_j> the particle state branch j
rides on; the pointers see the particle only through the Gram matrix g_jk =
<p_j|p_k>.  The identity is the which-path entangled state (orthogonal paths
add incoherently), all ones a pure two-mode wave function: the unshifted
product, the erased (post-selected) state and the first-order states
produced by a pair of weak probes.  Every moment is a closed form built from
displaced-Gaussian integrals.

Probes couple impulsively: a probe with strength delta acting over a time
window displaces its pointer, to first order in delta, by delta times the
time-averaged conditional (weak) value of the target projector over that
window.  Nothing here co-propagates pointer and particle beyond first order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

from .core import RegionProjector, check_width
from .errors import ConfigError
from .weakval import PrePostPair

__all__ = [
    "JointPointerState",
    "WeakProbe",
    "TwoProbeRun",
    "which_path_state",
    "erase_and_postselect",
    "certain_shift_state",
    "difference_variance",
    "two_probe_run",
]

WEAKNESS_WARNING_RATIO = 0.5


def _check_centre(centre: float, sigma: float) -> None:
    """Refuse a pointer centre c unless (2c)^2 and (2c)^2 / (8 sigma^2) are
    finite: 2|c| bounds every offset between two branches and every mean,
    which the moments square.  Products, not **, as in core.check_width."""
    try:
        square = 4.0 * float(centre) * float(centre)
    except OverflowError:  # an int past the float range
        square = math.inf
    if not (square < math.inf and square / (8.0 * sigma * sigma) < math.inf):
        raise ConfigError(f"pointer shift {centre} is out of range for sigma {sigma}: "
                          "the squared branch offset or it over 8 sigma^2 leaves double range")


@dataclass(frozen=True)
class JointPointerState:
    """Superposition of product branches over the two pointer coordinates.

    branches holds (coeff, a_center, b_center) and gram[j][k] = <p_j|p_k>,
    the overlap of the particle states branches j and k ride on: the
    identity for orthogonal paths, all ones for one shared particle state.
    """

    sigma: float
    branches: tuple[tuple[complex, float, float], ...]
    gram: tuple[tuple[complex, ...], ...]
    postselect_prob: float | None = None

    def __post_init__(self) -> None:
        check_width(self.sigma, "pointer sigma")
        if not self.branches:
            raise ConfigError("joint state needs at least one branch")
        n = len(self.branches)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ConfigError(f"gram must be {n} x {n}, one row and column per branch")
        for _, a, b in self.branches:
            for centre in (a, b):
                _check_centre(centre, self.sigma)

    @cached_property
    def _sums(self) -> tuple[float, ...]:
        """One pass over the branch pairs.  With m = (x_j + x_k)/2 the product
        G(x_j) G(x_k) is exp(-(x_j - x_k)^2 / 8 sigma^2) times a normalized
        Gaussian density of mean m and variance sigma^2, so pair (j, k)
        weighs w = Re(conj(c_j) c_k g_jk) times both pointers' overlaps and
        has means m_a, m_b.  Returns the squared norm S = sum w and the sums
        of w m_a, w m_b, w m_a^2, w m_b^2 and w m_a m_b over S."""
        scale = -1.0 / (8.0 * self.sigma**2)
        terms = []
        for (cj, aj, bj), row in zip(self.branches, self.gram):
            for (ck, ak, bk), g in zip(self.branches, row):
                w = (cj.conjugate() * ck * g).real * math.exp(
                    scale * ((aj - ak) ** 2 + (bj - bk) ** 2))
                ma, mb = 0.5 * (aj + ak), 0.5 * (bj + bk)
                terms.append((w, w * ma, w * mb, w * ma * ma, w * mb * mb, w * ma * mb))
        s, *rest = map(sum, zip(*terms))
        if not s > 0.0:
            raise ConfigError(f"joint state has no weight to read moments from (norm {s})")
        return (s, *(t / s for t in rest))

    def norm_squared(self) -> float:
        return self._sums[0]

    def mean_a(self) -> float:
        return self._sums[1]

    def mean_b(self) -> float:
        return self._sums[2]

    def var_a(self) -> float:
        return self.sigma**2 + self._sums[3] - self._sums[1] ** 2

    def var_b(self) -> float:
        return self.sigma**2 + self._sums[4] - self._sums[2] ** 2

    def covariance(self) -> float:
        return self._sums[5] - self._sums[1] * self._sums[2]

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
    coeff = 1.0 / math.sqrt(2.0)
    return JointPointerState(sigma=sigma,
                             branches=((coeff, delta, 0.0), (coeff, 0.0, delta)),
                             gram=((1.0, 0.0), (0.0, 1.0)))


def erase_and_postselect(state: JointPointerState) -> JointPointerState:
    """Project the particle onto the symmetric superposition of its paths.

    The n >= 2 branches must ride on orthogonal paths (gram the identity).
    Each path overlaps the symmetric state by 1/sqrt(n), so the projection
    divides every coefficient by sqrt(n) and leaves all branches on one
    particle state (gram all ones); the returned state is that projection
    renormalized.  The post-selection succeeds with the ratio of the squared
    norms after and before, recorded on the returned state; for the
    which-path pair that is (1 + c^2)/2, with c^2 the squared modulus of the
    shifted/unshifted pointer overlap.
    """
    n = len(state.branches)
    if n < 2 or any(g != (j == k) for j, row in enumerate(state.gram)
                    for k, g in enumerate(row)):
        raise ConfigError("erasure needs two or more branches on orthogonal paths")
    ones = ((1.0,) * n,) * n
    # n times the projection's squared norm: the 1/sqrt(n) cancels on renormalizing
    coherent = JointPointerState(state.sigma, state.branches, ones).norm_squared()
    return JointPointerState(
        sigma=state.sigma,
        branches=tuple((c / math.sqrt(coherent), a, b) for c, a, b in state.branches),
        gram=ones,
        postselect_prob=coherent / (n * state.norm_squared()),
    )


def certain_shift_state(delta_a: float, delta_b: float, sigma: float) -> JointPointerState:
    """Product state with both pointers definitely shifted.

    Independence keeps Var(x_A - x_B) at 2 sigma^2 no matter the shifts.
    """
    return JointPointerState(sigma=sigma, branches=((1.0 + 0.0j, delta_a, delta_b),),
                             gram=((1.0,),))


def difference_variance(state: JointPointerState) -> float:
    """Var(x_A - x_B) = Var(x_A) + Var(x_B) - 2 Cov(x_A, x_B).

    Exact for any branch superposition: every term is a displaced-Gaussian
    integral of the state's branches.
    """
    return state.var_a() + state.var_b() - 2.0 * state.covariance()


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
    the corresponding product of shifted pointers (exactly normalized),
    carrying the pair's post-selection probability.
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


def two_probe_run(pair: PrePostPair, probe_a: WeakProbe, probe_b: WeakProbe,
                  pointer_sigma: float) -> TwoProbeRun:
    """Apply two weak probes to one particle and read the pointers.

    Each probe displaces its pointer by sign * delta * Re[avg], where avg is
    pair.window_value of its target and window: the conditional value of the
    target projector under the pair's pre- and post-selection, averaged over
    the window by the trapezoid over the records in it.  Windows must start
    and end on the pair's recorded times; shifts are first order in delta, so
    the joint state is a plain product of displaced Gaussians and the
    difference variance stays at its product value.
    """
    for probe in (probe_a, probe_b):
        ratio = probe.delta / pointer_sigma
        if ratio > WEAKNESS_WARNING_RATIO:
            warnings.warn(
                f"probe strength delta/sigma = {ratio:.3g} is not weak; "
                "first-order pointer readout is unreliable",
                stacklevel=2,
            )

    value_a, value_b = (pair.window_value(probe.target, probe.window)
                        for probe in (probe_a, probe_b))
    shift_a = probe_a.sign * probe_a.delta * value_a.real
    shift_b = probe_b.sign * probe_b.delta * value_b.real
    state = JointPointerState(
        sigma=pointer_sigma,
        branches=((1.0 + 0.0j, shift_a, shift_b),),
        gram=((1.0,),),
        postselect_prob=pair.postselect_prob,
    )
    return TwoProbeRun(
        state=state,
        mean_shift_a=shift_a,
        mean_shift_b=shift_b,
        window_values=(value_a, value_b),
        net_rotation=shift_a + shift_b,
    )
