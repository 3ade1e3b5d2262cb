"""Time-dependent Schrodinger propagation on a periodic grid (hbar = m = 1).

Two deliberately independent schemes are provided so they can cross-check
each other:

``spectral-split-step``
    Symmetric Strang splitting: half potential kick, exact kinetic phase in
    Fourier space, half potential kick.  Second order in dt, spectrally
    accurate in space, unitary up to FFT roundoff.  The exit half kick of
    one step and the entry half kick of the next are fused into one full
    kick (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)), so the
    stepper carries the state before its pending exit kick and a record is
    a side copy with that kick applied; the carried state, and so every
    later record, does not depend on which times are recorded.

``implicit-fd``
    Crank-Nicolson (Cayley) stepping of a finite-difference Hamiltonian.
    The rational form (1 + i H dt/2)^{-1} (1 - i H dt/2) is exactly unitary
    for Hermitian H, so the norm is preserved unconditionally.  The Laplacian
    uses a 16th-order periodic stencil: a rectangular barrier puts genuine
    curvature kinks into the wave function, and low-order stencils disperse
    that structure so differently from the spectral scheme that the kink
    error dominates the cross-scheme comparison (measured on the default
    grid: 2nd order disagrees at the 1e-2 level, 6th at 2e-5, 16th at 5e-6).
    With tau = dt/2 and A = 1 + i tau H, the step is x = 2 A^{-1} b - b,
    because 1 - i tau H = 2 - A: one solve per step and no matvec.  The
    kinetic part C = 1 + i tau (-Laplacian/2) is circulant on the periodic
    grid, so an FFT diagonalizes it, wrap-around entries included, and the
    barrier cells (v != 0) enter through a Woodbury correction of rank equal
    to their number (Golub & Van Loan, Matrix Computations, 4.8 and 2.1.4).
    The correction's columns, shifted copies of the first column of C^-1,
    decay geometrically away from the cells, so a step corrects only the
    rows where they reach eps times their peak: 145 of 4096 around the
    default scenario's 103 cells.  The two schemes share the FFT but not the
    discretization: spectral kinetic energy and Strang splitting against a
    16th-order stencil and the Cayley form.  The tests check the linear
    algebra against a sparse LU of the full periodic operator.  The grid
    needs more than 16 points for the stencil to fit.

PropagatorConfig puts its record times on the step grid (record_steps) by
same_instant, the one rule for two times naming the same instant, and a leg
counts in steps.  It steps a stack of rows at once, one batched FFT along
the last axis (implicit-fd applies its barrier correction row by row), and
stops at its last record.  Row 0 is the state; propagate_with_source adds a
second row that collects a weighted region source at the record times and
is read at the last record, so a conditional dwell needs one forward leg
and no backward one.

Runtime guards watch row 0: probability reaching the domain edges, checked
after every step (wrap-around would silently corrupt the run, and a packet
can cross the boundary and come back between two records), and norm drift
at every record (a broken solve or unstable step shows up there
first).  The edge weight is absolute, sum |psi|^2 dx over the edge cells
against EDGE_PROBABILITY_LIMIT, so a leg from a projected state P psi of
norm^2 p may carry 1e-8/p of relative edge weight: contamination competes
with the physics at the scale of the unprojected state.  Norm drift is
relative to the leg's starting norm.  A NaN trips either guard.  Under
split-step the edge guard reads the carried state before its exit kick; the
kick is unimodular, so the cell magnitudes are the same up to roundoff.
Snapshots keep their global phase and are never renormalized.

scipy.fft is imported when a stepper is built, not with this module, so
importing the package costs numpy alone; the stepper keeps the routines for
its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import BarrierSpec, Grid, WaveFunction
from .errors import ConfigError, EdgeDensityError, SchemeInstabilityError

__all__ = [
    "SCHEMES",
    "same_instant",
    "PropagatorConfig",
    "Snapshot",
    "propagate",
    "propagate_backward",
    "propagate_with_source",
    "energy_expectation",
]

SCHEMES = ("spectral-split-step", "implicit-fd")

EDGE_CELLS = 4  # cells at each domain end watched by the edge guard
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


def same_instant(a, b):
    """Whether times a and b name the same instant: they differ by at most
    1e-9 times the larger of 1, |a| and |b|.  Elementwise on arrays."""
    return np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


class Snapshot(NamedTuple):
    t: float
    psi: WaveFunction


@dataclass(frozen=True)
class PropagatorConfig:
    """Time step, duration, scheme, and which times to record.

    Each record time must be the same instant as a step j * dt with 0 <= j <=
    n_steps, and record_steps holds the j.  Record times are elapsed time
    along the run, for both the forward and the backward direction.
    """

    dt: float
    n_steps: int
    scheme: str = "spectral-split-step"
    record_times: tuple[float, ...] = ()
    record_steps: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.dt < np.inf:  # NaN fails it too
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 0:
            raise ConfigError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        times = tuple(float(t) for t in self.record_times) or (self.duration,)
        # a non-finite t / dt has no step; -1 sends it to the range check
        steps = [round(q) if np.isfinite(q) else -1 for q in (t / self.dt for t in times)]
        for t, j in zip(times, steps):
            if not (same_instant(j * self.dt, t) and 0 <= j <= self.n_steps):
                raise ConfigError(
                    f"record time {t} is not a step multiple inside [0, {self.duration}]"
                )
        if sorted(steps) != steps or len(set(steps)) != len(steps):
            raise ConfigError("record_times must be strictly increasing")
        object.__setattr__(self, "record_times", times)
        object.__setattr__(self, "record_steps", tuple(steps))

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt


def _potential(grid: Grid, barrier: BarrierSpec | None) -> np.ndarray:
    return barrier.potential(grid) if barrier is not None else np.zeros(grid.n)


class _SplitStep:
    """Strang steps with the half kicks of adjacent steps fused into one.

    The carried stack x is the state before its pending exit half kick, so a
    step is x <- IFFT(K FFT(V x)) with V the full kick (a half kick before the
    first step, when nothing is pending) and state(x) applies the pending
    kick to a copy.  1/n is folded into the kinetic phase K.
    """

    def __init__(self, grid: Grid, v: np.ndarray, dt: float) -> None:
        import scipy.fft

        self.fft, self.ifft = scipy.fft.fft, scipy.fft.ifft
        self.half_v = np.exp(-0.5j * dt * v)
        self.full_v = np.exp(-1j * dt * v)
        self.kinetic = np.exp(-0.5j * dt * grid.k**2) / grid.n
        self.entry, self.exit = self.half_v, None

    def step(self, x: np.ndarray) -> np.ndarray:
        x = self.fft(self.entry * x, overwrite_x=True)
        x *= self.kinetic
        x = self.ifft(x, norm="forward", overwrite_x=True)
        self.entry, self.exit = self.full_v, self.half_v
        return x

    def state(self, x: np.ndarray) -> np.ndarray:
        return x.copy() if self.exit is None else self.exit * x


class _CrankNicolson:
    """Cayley steps x <- 2 A^-1 x - x with A = C + i tau diag(v).

    C = 1 + i tau (-Laplacian/2) is circulant, so an FFT diagonalizes it and
    a step is y = IFFT(FFT(x) 2/eig) followed by a Woodbury correction on the
    cells where v != 0.
    """

    def __init__(self, grid: Grid, v: np.ndarray, dt: float) -> None:
        import scipy.fft

        n = grid.n
        m = STENCIL_HALF_WIDTH
        if n <= 2 * m:
            raise ConfigError(
                f"implicit-fd needs more than {2 * m} grid points for its "
                f"{2 * m}th-order periodic stencil, got n={n}"
            )
        tau = 0.5 * dt
        self.fft, self.ifft = scipy.fft.fft, scipy.fft.ifft
        # first column of -Laplacian/2; its spectrum is real since the
        # stencil is symmetric
        column = np.zeros(n)
        column[np.arange(-m, m + 1) % n] = (-0.5 / grid.dx**2) * _second_derivative_stencil(m)
        eig = 1.0 + 1j * tau * self.fft(column).real
        self.scale = 2.0 / eig
        g = self.ifft(1.0 / eig)  # first column of C^-1: C^-1[i, j] = g[i - j]

        # A = C + U D U^T with U selecting the barrier cells and D = i tau v
        # there, so A^-1 = C^-1 - C^-1 U K U^T C^-1 with K = M^-1 D and the
        # capacitance matrix M = I + D C^-1[cells, cells].  det A = det C det M,
        # and A = 1 + i tau H and C are invertible for Hermitian H, so M is.
        self.cells = np.flatnonzero(v)
        d = 1j * tau * v[self.cells]
        inner = g[(self.cells[:, None] - self.cells) % n]
        self.k = np.linalg.solve(np.eye(self.cells.size) + d[:, None] * inner, np.diag(d))
        # |g| decays geometrically away from offset 0, so a step corrects only
        # the rows nearer a cell than the first offset r where |g| falls below
        # eps times its peak; the terms left out are roundoff on the
        # correction's largest.  Beyond r the FFT's own roundoff can exceed
        # that level at a large tau, so it is not read.
        size = np.abs(g[:n // 2 + 1])
        below = size < np.finfo(np.float64).eps * size.max()
        r = int(np.argmax(below)) if below.any() else n // 2 + 1
        self.rows = np.unique((self.cells[:, None] + np.arange(1 - r, r)) % n)
        self.g = g[(self.rows[:, None] - self.cells) % n]

    def step(self, x: np.ndarray) -> np.ndarray:
        # one batched FFT pair over the stack's rows; the correction goes one
        # row at a time, so a row stepped in a stack comes out bit for bit as
        # stepped alone
        y = self.fft(x)
        y *= self.scale
        y = self.ifft(y, overwrite_x=True)
        for row in y:
            row[self.rows] -= self.g @ (self.k @ row[self.cells])
        y -= x
        return y

    def state(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


def _make_stepper(scheme: str, grid: Grid, v: np.ndarray, dt: float):
    if scheme == "spectral-split-step":
        return _SplitStep(grid, v, dt)
    return _CrankNicolson(grid, v, dt)


def _run(psi: WaveFunction, cfg: PropagatorConfig, barrier: BarrierSpec | None,
         dt_sign: float, source: tuple[np.ndarray, np.ndarray] | None = None,
         ) -> tuple[list[Snapshot], np.ndarray]:
    """Step the stack (psi, source row) to the last record and return psi's
    snapshots and the stack there.  Only psi is guarded and recorded; a
    source (mask, weights) adds weights[j] * mask * psi to the source row at
    the j-th record."""
    grid = psi.grid
    norm0 = psi.norm()
    if not np.isfinite(norm0):
        raise ConfigError("cannot propagate a state with a non-finite norm")
    if norm0 == 0.0:
        raise ConfigError("cannot propagate the zero state")
    stepper = _make_stepper(cfg.scheme, grid, _potential(grid, barrier), dt_sign * cfg.dt)

    wanted = {step: j for j, step in enumerate(cfg.record_steps)}
    out: list[Snapshot] = []

    def check_edge(step: int, amp: np.ndarray) -> None:
        head, tail = amp[:EDGE_CELLS], amp[-EDGE_CELLS:]
        edge = (np.vdot(head, head) + np.vdot(tail, tail)).real * grid.dx
        if not edge <= EDGE_PROBABILITY_LIMIT:  # NaN trips it too
            raise EdgeDensityError(
                f"probability {edge:.3e} reached the domain edge at t={step * cfg.dt}; "
                "enlarge the domain or shorten the run"
            )

    def record(step: int, x: np.ndarray) -> None:
        state = WaveFunction(grid, stepper.state(x[0]))
        drift = abs(state.norm() / norm0 - 1.0)
        if not drift <= NORM_DRIFT_LIMIT:
            raise SchemeInstabilityError(
                f"norm drifted by {drift:.3e} after {step} steps of {cfg.scheme}"
            )
        out.append(Snapshot(step * cfg.dt, state))
        if source is not None:
            # the fused split-step kick is diagonal, so it commutes with the mask
            mask, weights = source
            x[1, mask] += weights[wanted[step]] * x[0, mask]

    x = np.zeros((1 if source is None else 2, grid.n), dtype=np.complex128)
    x[0] = psi.amp
    for step in range(cfg.record_steps[-1] + 1):
        if step:
            x = stepper.step(x)
        check_edge(step, x[0])
        if step in wanted:
            record(step, x)
    return out, stepper.state(x)


def propagate(psi: WaveFunction, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None) -> list[Snapshot]:
    """Evolve psi forward, returning snapshots at cfg.record_times.

    The leg stops at the last record time, which may fall short of the
    duration.  The edge guard reads absolute probability, so a state of
    norm below one may carry proportionally more relative edge weight.
    """
    return _run(psi, cfg, barrier, dt_sign=+1.0)[0]


def propagate_backward(psi: WaveFunction, cfg: PropagatorConfig,
                       barrier: BarrierSpec | None = None) -> list[Snapshot]:
    """Evolve psi backward; snapshot times are elapsed backward time.

    Like propagate, the leg stops at the last record time.  Composing
    propagate_backward after propagate with the same config recovers the
    initial state up to the scheme's roundoff.
    """
    return _run(psi, cfg, barrier, dt_sign=-1.0)[0]


def propagate_with_source(psi: WaveFunction, cfg: PropagatorConfig,
                          barrier: BarrierSpec | None, mask: np.ndarray,
                          weights: np.ndarray | Sequence[float],
                          ) -> tuple[list[Snapshot], WaveFunction]:
    """Evolve psi forward beside a source row phi, in the same steps.

    phi starts at zero and gains weights[j] * mask * psi(t_j) at the j-th of
    cfg.record_times t_j.  Like propagate, the leg stops at the last record
    t_J, so phi is read at the instant of the last snapshot: returns psi's
    snapshots and phi(t_J) = sum_j weights[j] U(t_J - t_j) mask psi(t_j).
    The guards watch psi alone.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(cfg.record_times),):
        raise ConfigError(
            f"need one source weight per record time ({len(cfg.record_times)}), "
            f"got shape {weights.shape}"
        )
    snaps, last = _run(psi, cfg, barrier, dt_sign=+1.0,
                       source=(np.asarray(mask, dtype=bool), weights))
    return snaps, WaveFunction(psi.grid, last[1])


def energy_expectation(psi: WaveFunction, barrier: BarrierSpec | None = None) -> float:
    """<H> evaluated with the spectral kinetic operator plus the grid potential."""
    grid = psi.grid
    f = np.fft.fft(psi.amp)
    kinetic = np.sum(0.5 * grid.k**2 * np.abs(f) ** 2) * grid.dx / grid.n
    potential = np.sum(_potential(grid, barrier) * psi.density()) * grid.dx
    return float((kinetic + potential) / psi.norm() ** 2)
