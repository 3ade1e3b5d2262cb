"""Stationary scattering off piecewise-constant barriers via transfer matrices.

Plane-wave amplitudes in each constant-potential region are matched at the
interfaces (continuity of psi and psi'), with the in-region propagation kept
in local coordinates so evanescent factors never see absolute positions.

Phase convention
----------------
``t`` is the coefficient of e^{ikx} on the far side for a unit-amplitude
incident wave e^{ikx}; it is translation invariant and equals exactly 1 for
an empty segment.  The free phase e^{ik*span} accumulated in crossing the
structure (span = rightmost edge - leftmost edge) is therefore *not* inside
``t``; group delays reinstate it explicitly,

    tau(E) = d/dE [ arg t(E) + k(E) * span ],

so an empty segment has group delay span/k, the free traversal time.

``r`` is the coefficient of e^{-ikx} for the same incident wave, in global
coordinates (its phase depends on where the structure sits; |r| does not).

Closed-form delay
-----------------
Since det T = 1, t = e^{-ik*span}/T11, so tau(E) = -Im(T11'/T11).  The
derivative T' = dT/dE rides through the same product as T, factor by factor:
q' = 1/q, the interface ratio r = q_prev/q has r' = (1/q_prev - r/q)/q, and
the hop diag(e^{iqw}, e^{-iqw}) has derivative
diag(iw/q e^{iqw}, -iw/q e^{-iqw}).  Each evanescent hop is divided by its
growth e^{kappa*w}, and kappa*w is added to a real log-scale, so neither T
nor T' overflows on thick barriers; the scale cancels in T10/T11 and in
T11'/T11, and t carries it back as e^{-scale}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import BarrierSpec
from .errors import ConfigError

__all__ = ["ScatterResult", "scattering_amplitudes", "group_delay", "delay_vs_width"]

# Largest kappa*width before the transmitted amplitude underflows double range.
_MAX_EVANESCENT_EXPONENT = 700.0


@dataclass(frozen=True)
class ScatterResult:
    """Transmission/reflection amplitudes at a single energy."""

    energy: float
    k: float
    t: complex
    r: complex

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2

    @property
    def reflection(self) -> float:
        return abs(self.r) ** 2


def _regions(barrier: BarrierSpec) -> list[tuple[float, float]]:
    """(width, potential) for every region between the outer edges, gaps included."""
    out: list[tuple[float, float]] = []
    pos = barrier.x_left
    for x1, x2, h in barrier.segments:
        if x1 > pos:
            out.append((x1 - pos, 0.0))
        out.append((x2 - x1, h))
        pos = x2
    return out


def _validate_energy(energy: float, barrier: BarrierSpec) -> None:
    if energy <= 0.0:
        raise ConfigError(f"energy must be positive, got {energy}")
    for _, _, h in barrier.segments:
        if abs(energy - h) <= 1e-12 * max(1.0, abs(energy)):
            raise ConfigError(
                f"energy {energy} coincides with a segment height {h}; "
                "the in-barrier solution is degenerate there"
            )


def _transfer(energy: float, barrier: BarrierSpec):
    """Scaled transfer matrix, its energy derivative, and the log of the scale.

    Returns ``(T, dT, scale)`` with ``T`` and ``dT`` as (T00, T01, T10, T11)
    tuples; the true matrix and its derivative are e^{scale} times them.
    """
    _validate_energy(energy, barrier)
    k = math.sqrt(2.0 * energy)
    for w, h in _regions(barrier):
        if h > energy and math.sqrt(2.0 * (h - energy)) * w > _MAX_EVANESCENT_EXPONENT:
            raise ConfigError(
                "evanescent decay exceeds double-precision range: "
                f"kappa*width = {math.sqrt(2.0 * (h - energy)) * w:.1f}"
            )

    # Coefficient transfer [A', B'] = T [A, B] from the left outer region
    # (referenced to the leftmost edge) to the right outer region
    # (referenced to the rightmost edge).  Each region contributes the hop
    # diag(e^{iqw}, e^{-iqw}) after the interface 1/2 [[1+r, 1-r], [1-r, 1+r]]
    # with r = q_prev/q; the closing zero-width region is the right outer one.
    t00, t01, t10, t11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    d00 = d01 = d10 = d11 = 0j
    scale = 0.0
    q_prev = complex(k)
    for width, height in [*_regions(barrier), (0.0, 0.0)]:
        q = cmath.sqrt(2.0 * (energy - height))
        r = q_prev / q
        dr = (1.0 / q_prev - r / q) / q
        growth = q.imag * width
        scale += growth
        a = 0.5 * cmath.exp(1j * q * width - growth)
        b = 0.5 * cmath.exp(-1j * q * width - growth)
        s = 1j * width / q
        f00, f01, f10, f11 = a * (1.0 + r), a * (1.0 - r), b * (1.0 - r), b * (1.0 + r)
        g00, g01 = s * f00 + a * dr, s * f01 - a * dr
        g10, g11 = -s * f10 - b * dr, b * dr - s * f11
        d00, d01, d10, d11 = (
            g00 * t00 + g01 * t10 + f00 * d00 + f01 * d10,
            g00 * t01 + g01 * t11 + f00 * d01 + f01 * d11,
            g10 * t00 + g11 * t10 + f10 * d00 + f11 * d10,
            g10 * t01 + g11 * t11 + f10 * d01 + f11 * d11,
        )
        t00, t01, t10, t11 = (
            f00 * t00 + f01 * t10, f00 * t01 + f01 * t11,
            f10 * t00 + f11 * t10, f10 * t01 + f11 * t11,
        )
        q_prev = q
    return (t00, t01, t10, t11), (d00, d01, d10, d11), scale


def scattering_amplitudes(energy: float, barrier: BarrierSpec) -> ScatterResult:
    """Exact t and r for a plane wave of given energy (hbar = m = 1)."""
    (_, _, t10, t11), _, scale = _transfer(energy, barrier)
    # Incident from the left: [t_local, 0] = T [1, r_local], so
    # t_local = det(T)/T11 and r_local = -T10/T11.  The determinants of the
    # interface factors telescope (each contributes q_prev/q_next) and the
    # hops are unimodular, so det(T) = 1 exactly; using that instead of the
    # assembled matrix entries avoids a catastrophic e^{+kappa d} cancellation
    # for thick barriers.  The returned matrix is T e^{-scale}.
    k = math.sqrt(2.0 * energy)
    r_local = -t10 / t11
    t_local = math.exp(-scale) / t11
    span = barrier.x_right - barrier.x_left
    t = t_local * cmath.exp(-1j * k * span)
    r = r_local * cmath.exp(2j * k * barrier.x_left)
    return ScatterResult(energy=float(energy), k=k, t=t, r=r)


def group_delay(energy: float, barrier: BarrierSpec) -> float:
    """Group (phase) delay d/dE [arg t + k*span] at the given energy.

    Exact: t = e^{-ik*span}/T11, so the delay is -Im(T11'/T11).  A delay
    that is not finite, such as the overflow of the interface term -r/q^2
    near E = 0, is refused like an evanescent exponent past
    _MAX_EVANESCENT_EXPONENT.
    """
    (_, _, _, t11), (_, _, _, d11), _ = _transfer(energy, barrier)
    delay = -(d11 / t11).imag
    if not math.isfinite(delay):
        raise ConfigError(f"group delay at energy {energy} exceeds double-precision "
                          f"range: got {delay}")
    return delay


def delay_vs_width(energy: float, height: float,
                   widths: "list[float]") -> list[tuple[float, float]]:
    """Group delay for a family of single rectangular barriers of growing width."""
    out = []
    for w in widths:
        if w <= 0.0:
            raise ConfigError(f"barrier width must be positive, got {w}")
        barrier = BarrierSpec.rectangular(0.0, w, height)
        out.append((float(w), group_delay(energy, barrier)))
    return out
