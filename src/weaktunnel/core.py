"""Grids, wave functions, barriers, projectors, and spin operators.

Everything works in natural units hbar = m = 1.  Space is a uniform periodic
grid of n points (n a power of two, so the spectral propagator can use the
FFT); a state is a complex amplitude per grid point with the inner product
<f|g> = sum conj(f) g dx.

Gaussian packets follow the convention

    psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x - x0)^2 / (4 sigma^2) + i k0 x)

so sigma is the standard deviation of |psi|^2 (not of the amplitude), and
<H> = k0^2/2 + 1/(8 sigma^2) for a free packet.

Spin operators are built from the usual ladder construction for any
half-integer j, with eigenvalues {-j, ..., +j}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "Grid",
    "WaveFunction",
    "BarrierSpec",
    "RegionProjector",
    "gaussian_packet",
    "region_projector",
    "cell_projectors",
    "edge_probability",
    "SpinOps",
    "spin_ops",
    "spin_eigenstate",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial grid: points x_min + j*dx for j in [0, n)."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ConfigError(
                f"grid size must be a power of two and at least 2, got n={self.n}"
            )
        if self.dx <= 0:
            raise ConfigError(f"grid spacing must be positive, got dx={self.dx}")

    @classmethod
    def from_domain(cls, x_min: float, x_max: float, n: int) -> "Grid":
        """Grid covering [x_min, x_max) with n points (x_max itself is the wrap point)."""
        if x_max <= x_min:
            raise ConfigError("domain must satisfy x_max > x_min")
        return cls(x_min=x_min, dx=(x_max - x_min) / n, n=n)

    @property
    def x_max(self) -> float:
        return self.x_min + self.n * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        return _readonly(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers matching numpy's FFT ordering."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a grid; immutable after construction."""

    grid: Grid
    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=np.complex128)
        if amp.shape != (self.grid.n,):
            raise ConfigError(
                f"amplitude shape {amp.shape} does not match grid size {self.grid.n}"
            )
        object.__setattr__(self, "amp", _readonly(amp))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise ConfigError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.amp / n)

    def density(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def inner(self, other: "WaveFunction") -> complex:
        """<self|other> with the left argument conjugated."""
        if other.grid != self.grid:
            raise ConfigError("states live on different grids")
        return complex(np.vdot(self.amp, other.amp) * self.grid.dx)

    def expectation_x(self) -> float:
        d = self.density()
        return float(np.sum(d * self.grid.x) * self.grid.dx / (np.sum(d) * self.grid.dx))

    def variance_x(self) -> float:
        d = self.density() * self.grid.dx
        d = d / np.sum(d)
        mean = float(np.sum(d * self.grid.x))
        return float(np.sum(d * (self.grid.x - mean) ** 2))

    def expectation_k(self) -> float:
        phi = np.fft.fft(self.amp)
        w = np.abs(phi) ** 2
        return float(np.sum(w * self.grid.k) / np.sum(w))


def gaussian_packet(grid: Grid, x0: float, sigma: float, k0: float) -> WaveFunction:
    """Normalized Gaussian packet centered at x0 with mean momentum k0.

    sigma is the position standard deviation of the probability density.
    Rejects packets the grid cannot represent: sigma must span at least
    three grid cells, and the center must stay at least 5 sigma away from
    both domain edges so no appreciable tail wraps around.
    """
    if sigma < 3.0 * grid.dx:
        raise ConfigError(
            f"packet too narrow for grid: sigma={sigma} < 3*dx={3.0 * grid.dx}"
        )
    if x0 - 5.0 * sigma < grid.x_min or x0 + 5.0 * sigma > grid.x_max:
        raise ConfigError(
            "packet touches boundary: need 5*sigma of clearance, got "
            f"x0={x0}, sigma={sigma} on [{grid.x_min}, {grid.x_max})"
        )
    x = grid.x
    amp = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    return WaveFunction(grid, amp).normalized()


@dataclass(frozen=True)
class BarrierSpec:
    """Piecewise-constant potential: a list of (x_left, x_right, height) segments.

    The potential is zero outside the segments.  On a grid, each segment
    covers the half-open cell range x_left <= x < x_right.  Segments must
    not overlap; heights may be negative (wells).
    """

    segments: tuple[tuple[float, float, float], ...]

    def __init__(self, segments: Sequence[Sequence[float]]) -> None:
        segs = tuple(tuple(float(v) for v in s) for s in segments)
        for s in segs:
            if len(s) != 3:
                raise ConfigError(f"segment must be (x_left, x_right, height), got {s}")
            if s[1] <= s[0]:
                raise ConfigError(f"segment has non-positive width: {s}")
        segs = tuple(sorted(segs))
        for a, b in zip(segs, segs[1:]):
            if b[0] < a[1]:
                raise ConfigError(f"segments overlap: {a} and {b}")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def rectangular(cls, x_left: float, x_right: float, height: float) -> "BarrierSpec":
        return cls([(x_left, x_right, height)])

    @property
    def x_left(self) -> float:
        return self.segments[0][0]

    @property
    def x_right(self) -> float:
        return self.segments[-1][1]

    @property
    def max_height(self) -> float:
        return max(h for _, _, h in self.segments)

    def potential(self, grid: Grid) -> np.ndarray:
        v = np.zeros(grid.n)
        for x1, x2, h in self.segments:
            v[(grid.x >= x1) & (grid.x < x2)] = h
        return v


@dataclass(frozen=True)
class RegionProjector:
    """Projector onto the half-open spatial region a <= x < b."""

    grid: Grid
    a: float
    b: float
    mask: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.b <= self.a:
            raise ConfigError(f"empty region: a={self.a} >= b={self.b}")
        mask = (self.grid.x >= self.a) & (self.grid.x < self.b)
        object.__setattr__(self, "mask", _readonly(mask))

    def apply(self, psi: WaveFunction) -> WaveFunction:
        if psi.grid != self.grid:
            raise ConfigError("state lives on a different grid")
        return WaveFunction(self.grid, np.where(self.mask, psi.amp, 0.0))

    def expectation(self, psi: WaveFunction) -> float:
        """Probability of finding the particle in the region."""
        if psi.grid != self.grid:
            raise ConfigError("state lives on a different grid")
        return float(np.sum(psi.density()[self.mask]) * self.grid.dx)


def region_projector(grid: Grid, a: float, b: float) -> RegionProjector:
    return RegionProjector(grid, a, b)


def cell_projectors(grid: Grid, edges: Sequence[float]) -> list[RegionProjector]:
    """Projectors onto consecutive half-open cells [edges[i], edges[i+1])."""
    if len(edges) < 2:
        raise ConfigError("need at least two edges")
    return [region_projector(grid, a, b) for a, b in zip(edges, edges[1:])]


EDGE_CELLS = 4


def edge_probability(psi: WaveFunction, n_edge: int = EDGE_CELLS) -> float:
    """Total probability in the outermost n_edge cells at each domain end.

    Used as the runtime guard against wrap-around on the periodic grid.
    """
    d = psi.density() * psi.grid.dx
    return float(np.sum(d[:n_edge]) + np.sum(d[-n_edge:]))


class SpinOps(NamedTuple):
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def spin_ops(j: float) -> SpinOps:
    """Spin operators for half-integer j via the ladder construction.

    Basis is ordered by decreasing magnetic quantum number m = j, ..., -j,
    so sz is diagonal with entries j down to -j.
    """
    two_j = round(2 * j)
    if two_j <= 0 or abs(2 * j - two_j) > 1e-12:
        raise ConfigError(f"j must be a positive half-integer, got {j}")
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)
    sz = np.diag(m).astype(np.complex128)
    # <j, m+1 | S+ | j, m> = sqrt(j(j+1) - m(m+1))
    raising = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(1, dim):
        mm = m[i]
        raising[i - 1, i] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    lowering = raising.conj().T
    sx = (raising + lowering) / 2.0
    sy = (raising - lowering) / 2.0j
    return SpinOps(sx=_readonly(sx), sy=_readonly(sy), sz=_readonly(sz))


def spin_eigenstate(op: np.ndarray, value: float, atol: float = 1e-9) -> np.ndarray:
    """Normalized eigenvector of a Hermitian matrix for the eigenvalue closest to value."""
    vals, vecs = np.linalg.eigh(op)
    idx = int(np.argmin(np.abs(vals - value)))
    if abs(vals[idx] - value) > atol:
        raise ConfigError(
            f"no eigenvalue within {atol} of {value}; spectrum is {vals}"
        )
    v = vecs[:, idx]
    # Fix the overall phase so the largest component is real positive.
    pivot = np.argmax(np.abs(v))
    v = v * np.exp(-1j * np.angle(v[pivot]))
    return _readonly(v.astype(np.complex128))
