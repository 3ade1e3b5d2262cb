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

The delay is differentiated numerically (centered differences, two step
sizes, Richardson extrapolation) with an explicit convergence check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BarrierSpec
from .errors import ConfigError, DerivativeError

__all__ = ["ScatterResult", "scattering_amplitudes", "group_delay", "delay_vs_width"]

# Largest kappa*width before the transmitted amplitude underflows double range.
_MAX_EVANESCENT_EXPONENT = 700.0


@dataclass(frozen=True)
class ScatterResult:
    """Transmission/reflection amplitudes at a single energy."""

    energy: float
    k: float
    kappa: float
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


def scattering_amplitudes(energy: float, barrier: BarrierSpec) -> ScatterResult:
    """Exact t and r for a plane wave of given energy (hbar = m = 1)."""
    _validate_energy(energy, barrier)
    k = np.sqrt(2.0 * energy)
    for w, h in _regions(barrier):
        if h > energy and np.sqrt(2.0 * (h - energy)) * w > _MAX_EVANESCENT_EXPONENT:
            raise ConfigError(
                "evanescent decay exceeds double-precision range: "
                f"kappa*width = {np.sqrt(2.0 * (h - energy)) * w:.1f}"
            )

    # Coefficient transfer [A', B'] = T [A, B] from the left outer region
    # (referenced to the leftmost edge) to the right outer region
    # (referenced to the rightmost edge).
    T = np.eye(2, dtype=np.complex128)
    q_prev = complex(k)
    for width, height in _regions(barrier):
        q = np.sqrt(2.0 * (energy - height) + 0j)
        ratio = q_prev / q
        interface = 0.5 * np.array(
            [[1.0 + ratio, 1.0 - ratio], [1.0 - ratio, 1.0 + ratio]],
            dtype=np.complex128,
        )
        phase = np.exp(1j * q * width)
        hop = np.array([[phase, 0.0], [0.0, 1.0 / phase]], dtype=np.complex128)
        T = hop @ interface @ T
        q_prev = q
    ratio = q_prev / k
    interface = 0.5 * np.array(
        [[1.0 + ratio, 1.0 - ratio], [1.0 - ratio, 1.0 + ratio]], dtype=np.complex128
    )
    T = interface @ T

    # Incident from the left: [t_local, 0] = T [1, r_local], so
    # t_local = det(T)/T11 and r_local = -T10/T11.  The determinants of the
    # interface factors telescope (each contributes q_prev/q_next) and the
    # hops are unimodular, so det(T) = 1 exactly; using that instead of the
    # assembled matrix entries avoids a catastrophic e^{+kappa d} cancellation
    # for thick barriers.
    r_local = -T[1, 0] / T[1, 1]
    t_local = 1.0 / T[1, 1]
    span = barrier.x_right - barrier.x_left
    t = t_local * np.exp(-1j * k * span)
    r = r_local * np.exp(2j * k * barrier.x_left)

    top = barrier.max_height
    kappa = float(np.sqrt(2.0 * (top - energy))) if energy < top else 0.0
    return ScatterResult(energy=float(energy), k=float(k), kappa=kappa,
                         t=complex(t), r=complex(r))


def _phase_difference(e_hi: float, e_lo: float, barrier: BarrierSpec) -> float:
    """Crossing-phase difference arg t + k*span between two nearby energies.

    The arg-t part is computed wrap-safe from the amplitude ratio, which is
    valid as long as the true difference stays inside (-pi, pi); the step
    sizes used below keep it far inside.
    """
    span = barrier.x_right - barrier.x_left
    t_hi = scattering_amplitudes(e_hi, barrier).t
    t_lo = scattering_amplitudes(e_lo, barrier).t
    dk = np.sqrt(2.0 * e_hi) - np.sqrt(2.0 * e_lo)
    return float(np.angle(t_hi * np.conj(t_lo)) + dk * span)


def group_delay(energy: float, barrier: BarrierSpec, h: float | None = None) -> float:
    """Group (phase) delay d/dE [arg t + k*span] at the given energy.

    Centered differences at step sizes h and h/2 are Richardson-extrapolated;
    if the two estimates disagree beyond tolerance the step is shrunk, and
    after repeated failures a DerivativeError carries both estimates.
    """
    _validate_energy(energy, barrier)
    if h is None:
        h = 1e-3 * max(1.0, energy)
    # Keep the stencil away from E = 0 and from every segment height.
    limit = energy / 8.0
    for _, _, height in barrier.segments:
        gap = abs(energy - height)
        if gap > 0.0:
            limit = min(limit, gap / 8.0)
    h = min(h, limit)
    if h <= 0.0:
        raise ConfigError(f"cannot build a difference stencil at energy {energy}")

    last_pair: tuple[float, float] = (np.nan, np.nan)
    for _ in range(8):
        d1 = _phase_difference(energy + h, energy - h, barrier) / (2.0 * h)
        d2 = _phase_difference(energy + h / 2.0, energy - h / 2.0, barrier) / h
        extrap = (4.0 * d2 - d1) / 3.0
        if abs(d2 - d1) <= max(1e-9, 1e-7 * abs(extrap)):
            return float(extrap)
        last_pair = (d1, d2)
        h /= 4.0
    raise DerivativeError(
        "group delay differentiation did not converge: "
        f"estimates {last_pair[0]!r} and {last_pair[1]!r} at energy {energy}"
    )


def delay_vs_width(energy: float, height: float, widths: "list[float]",
                   x_left: float = 0.0) -> list[tuple[float, float]]:
    """Group delay for a family of single rectangular barriers of growing width."""
    out = []
    for w in widths:
        if w <= 0.0:
            raise ConfigError(f"barrier width must be positive, got {w}")
        barrier = BarrierSpec.rectangular(x_left, x_left + w, height)
        out.append((float(w), group_delay(energy, barrier)))
    return out
