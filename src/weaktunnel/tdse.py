"""Time-dependent Schrodinger propagation on a periodic grid (hbar = m = 1).

Two deliberately independent schemes are provided so they can cross-check
each other:

``spectral-split-step``
    Symmetric Strang splitting: half potential kick, exact kinetic phase in
    Fourier space, half potential kick.  Second order in dt, spectrally
    accurate in space, unitary up to FFT roundoff.

``implicit-fd``
    Crank-Nicolson (Cayley) stepping of a finite-difference Hamiltonian.
    The rational form (1 + i H dt/2)^{-1} (1 - i H dt/2) is exactly unitary
    for Hermitian H, so the norm is preserved unconditionally.  The Laplacian
    uses a 16th-order periodic stencil: a rectangular barrier puts genuine
    curvature kinks into the wave function, and low-order stencils disperse
    that structure so differently from the spectral scheme that the kink
    error dominates the cross-scheme comparison (measured on the default
    grid: 2nd order disagrees at the 1e-2 level, 6th at 2e-5, 16th at 5e-6).

Runtime guards: probability reaching the domain edges, checked after every
step (wrap-around would silently corrupt the run, and a packet can cross the
boundary and come back between two records), and norm drift at every record
(a broken factorization or unstable step shows up there first).  Snapshots
keep their global phase and are never renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg

from .core import EDGE_CELLS, BarrierSpec, Grid, WaveFunction
from .errors import ConfigError, EdgeDensityError, SchemeInstabilityError

__all__ = [
    "SCHEMES",
    "PropagatorConfig",
    "Snapshot",
    "propagate",
    "propagate_backward",
    "energy_expectation",
]

SCHEMES = ("spectral-split-step", "implicit-fd")

EDGE_PROBABILITY_LIMIT = 1e-8
NORM_DRIFT_LIMIT = 1e-6

STENCIL_HALF_WIDTH = 8  # 16th-order central second derivative


def _second_derivative_stencil(m: int) -> np.ndarray:
    """Central second-derivative coefficients of order 2m, offsets -m .. +m."""
    from math import factorial

    c = np.zeros(2 * m + 1)
    for j in range(1, m + 1):
        c[m + j] = c[m - j] = (
            (-1) ** (j + 1) * 2.0 * factorial(m) ** 2
            / (j * j * factorial(m - j) * factorial(m + j))
        )
    c[m] = -2.0 * np.sum(c[m + 1:])
    return c


class Snapshot(NamedTuple):
    t: float
    psi: WaveFunction


@dataclass(frozen=True)
class PropagatorConfig:
    """Time step, duration, scheme, and which times to record.

    record_times must be (near-)integer multiples of dt inside [0, n_steps*dt];
    they are interpreted as elapsed time along the run, for both the forward
    and the backward direction.
    """

    dt: float
    n_steps: int
    scheme: str = "spectral-split-step"
    record_times: tuple[float, ...] = ()
    _record_steps: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ConfigError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        times = tuple(float(t) for t in self.record_times) or (self.duration,)
        steps = []
        for t in times:
            j = round(t / self.dt)
            if abs(j * self.dt - t) > 1e-9 * max(1.0, abs(t)) or not 0 <= j <= self.n_steps:
                raise ConfigError(
                    f"record time {t} is not a step multiple inside [0, {self.duration}]"
                )
            steps.append(j)
        if sorted(steps) != steps or len(set(steps)) != len(steps):
            raise ConfigError("record_times must be strictly increasing")
        object.__setattr__(self, "record_times", times)
        object.__setattr__(self, "_record_steps", tuple(steps))

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt


def _potential(grid: Grid, barrier: BarrierSpec | None) -> np.ndarray:
    return barrier.potential(grid) if barrier is not None else np.zeros(grid.n)


class _SplitStep:
    def __init__(self, grid: Grid, v: np.ndarray, dt: float) -> None:
        self.half_v = np.exp(-0.5j * dt * v)
        self.kinetic = np.exp(-0.5j * dt * grid.k**2)

    def step(self, amp: np.ndarray) -> np.ndarray:
        amp = self.half_v * amp
        amp = scipy.fft.ifft(self.kinetic * scipy.fft.fft(amp))
        return self.half_v * amp


class _CrankNicolson:
    def __init__(self, grid: Grid, v: np.ndarray, dt: float) -> None:
        n = grid.n
        m = STENCIL_HALF_WIDTH
        coeff = _second_derivative_stencil(m)
        lap = scipy.sparse.lil_matrix((n, n))
        idx = np.arange(n)
        for off in range(-m, m + 1):
            lap[idx, (idx + off) % n] = coeff[m + off] / grid.dx**2
        h = -0.5 * lap.tocsr() + scipy.sparse.diags(v)
        eye = scipy.sparse.identity(n, format="csr")
        self.rhs = (eye - 0.5j * dt * h).tocsr()
        self.solve = scipy.sparse.linalg.splu((eye + 0.5j * dt * h).tocsc()).solve

    def step(self, amp: np.ndarray) -> np.ndarray:
        return self.solve(self.rhs @ amp)


def _make_stepper(scheme: str, grid: Grid, v: np.ndarray, dt: float):
    if scheme == "spectral-split-step":
        return _SplitStep(grid, v, dt)
    return _CrankNicolson(grid, v, dt)


def _run(psi: WaveFunction, cfg: PropagatorConfig, barrier: BarrierSpec | None,
         dt_sign: float, edge_limit: float | None) -> list[Snapshot]:
    grid = psi.grid
    norm0 = psi.norm()
    if norm0 == 0.0:
        raise ConfigError("cannot propagate the zero state")
    if edge_limit is None:
        edge_limit = EDGE_PROBABILITY_LIMIT
    stepper = _make_stepper(cfg.scheme, grid, _potential(grid, barrier), dt_sign * cfg.dt)

    wanted = dict.fromkeys(cfg._record_steps)
    out: list[Snapshot] = []
    edge_scale = grid.dx / norm0**2

    def check_edge(step: int, amp: np.ndarray) -> None:
        head, tail = amp[:EDGE_CELLS], amp[-EDGE_CELLS:]
        edge = (np.vdot(head, head) + np.vdot(tail, tail)).real * edge_scale
        if edge > edge_limit:
            raise EdgeDensityError(
                f"probability {edge:.3e} reached the domain edge at t={step * cfg.dt}; "
                "enlarge the domain or shorten the run"
            )

    def record(step: int, amp: np.ndarray) -> None:
        state = WaveFunction(grid, amp.copy())
        drift = abs(state.norm() / norm0 - 1.0)
        if drift > NORM_DRIFT_LIMIT:
            raise SchemeInstabilityError(
                f"norm drifted by {drift:.3e} after {step} steps of {cfg.scheme}"
            )
        out.append(Snapshot(step * cfg.dt, state))

    amp = psi.amp.astype(np.complex128)
    check_edge(0, amp)
    if 0 in wanted:
        record(0, amp)
    for step in range(1, cfg.n_steps + 1):
        amp = stepper.step(amp)
        check_edge(step, amp)
        if step in wanted:
            record(step, amp)
    return out


def propagate(psi: WaveFunction, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None, *,
              edge_limit: float | None = None) -> list[Snapshot]:
    """Evolve psi forward, returning snapshots at cfg.record_times.

    edge_limit overrides the default edge-density threshold.  Renormalized
    post-selected states legitimately carry more relative weight near the
    boundary than a unit-norm packet, so callers that rescale states may
    rescale the guard with them.
    """
    return _run(psi, cfg, barrier, dt_sign=+1.0, edge_limit=edge_limit)


def propagate_backward(psi: WaveFunction, cfg: PropagatorConfig,
                       barrier: BarrierSpec | None = None, *,
                       edge_limit: float | None = None) -> list[Snapshot]:
    """Evolve psi backward; snapshot times are elapsed backward time.

    Composing propagate_backward after propagate with the same config
    recovers the initial state up to the scheme's roundoff.
    """
    return _run(psi, cfg, barrier, dt_sign=-1.0, edge_limit=edge_limit)


def energy_expectation(psi: WaveFunction, barrier: BarrierSpec | None = None) -> float:
    """<H> evaluated with the spectral kinetic operator plus the grid potential."""
    grid = psi.grid
    f = np.fft.fft(psi.amp)
    kinetic = np.sum(0.5 * grid.k**2 * np.abs(f) ** 2) * grid.dx / grid.n
    potential = np.sum(_potential(grid, barrier) * psi.density()) * grid.dx
    return float((kinetic + potential) / psi.norm() ** 2)
