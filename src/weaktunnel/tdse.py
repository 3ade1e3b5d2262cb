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
    because 1 - i tau H = 2 - A: one solve per step and no matvec.  A is
    banded (8 diagonals each side) apart from the stencil entries that wrap
    around the periodic boundary.  The solve is a banded LU of A without
    those corner entries (LAPACK zgbtrf, factored once per run) plus a
    rank-16 Woodbury correction that restores them (Golub & Van Loan, Matrix
    Computations, 4.3 and 2.1.4).  The correction's columns Z = B^-1 U decay
    geometrically away from the corners, so a step corrects only the rows
    where Z reaches eps times its largest entry: 58 of 4096 on the default
    scenario, and on its 1024-point test grid 58, 88 and 242 at dt = 0.02,
    0.5 and 5.  The terms left out are below the roundoff of the
    correction, which is itself at the edge amplitude, so the step equals
    the fully corrected one to float64 roundoff.  The grid needs more than
    16 points for the stencil to fit.

A leg steps a stack of rows at once: one batched FFT along the last axis,
or one band solve with the rows as right-hand sides (the corner correction
is applied row by row).  Row 0 is the state; propagate_with_source adds a
second row that collects a weighted region source at the record times, so
a conditional dwell needs one forward leg and no backward one.

Runtime guards watch row 0: probability reaching the domain edges, checked
after every step (wrap-around would silently corrupt the run, and a packet
can cross the boundary and come back between two records), and norm drift
at every record (a broken factorization or unstable step shows up there
first).  A NaN trips either guard.  Under split-step the edge guard reads
the carried state before its exit kick; the kick is unimodular, so the cell
magnitudes are the same up to roundoff.  Snapshots keep their global phase
and are never renormalized.

scipy is imported when a stepper is built, not with this module: scipy.fft
by spectral-split-step, scipy.linalg.lapack by implicit-fd.  Importing the
package then costs numpy alone, and a leg loads only its own scheme's
routines, which the stepper keeps for its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import BarrierSpec, Grid, WaveFunction
from .errors import ConfigError, EdgeDensityError, SchemeInstabilityError

__all__ = [
    "SCHEMES",
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
        if not 0 < self.dt < np.inf:  # NaN fails it too
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
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


def _lapack_check(routine: str, info: int) -> None:
    if info != 0:
        raise SchemeInstabilityError(
            f"Crank-Nicolson {routine} failed with info={info}"
            + (" (singular matrix)" if info > 0 else "")
        )


class _CrankNicolson:
    def __init__(self, grid: Grid, v: np.ndarray, dt: float) -> None:
        from scipy.linalg.lapack import zgbtrf, zgbtrs, zgesv

        n = grid.n
        m = STENCIL_HALF_WIDTH
        if n <= 2 * m:
            raise ConfigError(
                f"implicit-fd needs more than {2 * m} grid points for its "
                f"{2 * m}th-order periodic stencil, got n={n}"
            )
        tau = 0.5 * dt
        # i tau (-Laplacian/2) at offsets -m..m; the diagonal adds 1 + i tau v
        coupling = (-0.5j * tau / grid.dx**2) * _second_derivative_stencil(m)

        # LAPACK band storage: A[i, j] sits at ab[2m + i - j, j]; rows 0..m-1
        # are room for the fill-in of partial pivoting.
        ab = np.zeros((3 * m + 1, n), dtype=np.complex128)
        for k in range(-m, m + 1):
            ab[2 * m - k, max(k, 0):n + min(k, 0)] = coupling[m + k]
        ab[2 * m] += 1.0 + 1j * tau * v
        self.lu, self.piv, info = zgbtrf(ab, m, m)
        _lapack_check("zgbtrf", info)

        # The wrapped entries: A = B + U W, U selecting the corner rows and
        # W reading only the corner columns, which are the same 2m indices.
        self.corner = np.r_[:m, n - m:n]
        cols = self.corner[:, None] + np.arange(-m, m + 1)
        row, tap = np.nonzero((cols < 0) | (cols >= n))
        w = np.zeros((2 * m, 2 * m), dtype=np.complex128)
        w[row, np.searchsorted(self.corner, cols[row, tap] % n)] = coupling[tap]
        unit = np.zeros((n, 2 * m), dtype=np.complex128, order="F")
        unit[self.corner, np.arange(2 * m)] = 1.0
        z, info = zgbtrs(self.lu, m, m, unit, self.piv, overwrite_b=1)
        _lapack_check("zgbtrs", info)
        # Z = B^-1 U decays geometrically away from the corners, down into
        # subnormal numbers, which make a dense product up to 100x slower.
        # Zeroing them moves no entry of a step by more than
        # 2m * 2.2e-308 * max|k @ y[corner]|.
        z[np.abs(z) < np.finfo(np.float64).tiny] = 0.0
        _, _, k_mat, info = zgesv(np.eye(2 * m) + w @ z[self.corner], w)
        _lapack_check("zgesv", info)
        # A step corrects only the rows of Z with an entry of at least eps
        # times max|Z|.  A dropped row's correction is below
        # 2m * eps * max|Z| * max|k @ y[corner]|, roundoff on the largest
        # terms of a correction that is itself at the edge amplitude.
        size = np.abs(z).max(axis=1)
        self.rows = np.flatnonzero(size >= np.finfo(np.float64).eps * size.max())
        self.z, self.k, self.zgbtrs = z[self.rows], k_mat, zgbtrs

    def step(self, x: np.ndarray) -> np.ndarray:
        # the rows of the stack are the columns of one multi-right-hand-side
        # solve; the corner correction goes one column at a time, so a row
        # stepped in a stack comes out bit for bit as stepped alone
        m = STENCIL_HALF_WIDTH
        y, info = self.zgbtrs(self.lu, m, m, 2.0 * x.T, self.piv, overwrite_b=1)
        _lapack_check("zgbtrs", info)
        for column in y.T:
            column[self.rows] -= self.z @ (self.k @ column[self.corner])
        return (y - x.T).T

    def state(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


def _make_stepper(scheme: str, grid: Grid, v: np.ndarray, dt: float):
    if scheme == "spectral-split-step":
        return _SplitStep(grid, v, dt)
    return _CrankNicolson(grid, v, dt)


def _run(psi: WaveFunction, cfg: PropagatorConfig, barrier: BarrierSpec | None,
         dt_sign: float, edge_limit: float | None,
         source: tuple[np.ndarray, np.ndarray] | None = None,
         ) -> tuple[list[Snapshot], np.ndarray]:
    """Step the stack (psi, source row) and return psi's snapshots and the
    final stack.  Only psi is guarded and recorded; a source (mask, weights)
    adds weights[j] * mask * psi to the source row at the j-th record.  A
    leg without a source stops at its last record; with one it runs to the
    duration, where the source row is read."""
    grid = psi.grid
    norm0 = psi.norm()
    if not np.isfinite(norm0):
        raise ConfigError("cannot propagate a state with a non-finite norm")
    if norm0 == 0.0:
        raise ConfigError("cannot propagate the zero state")
    if edge_limit is None:
        edge_limit = EDGE_PROBABILITY_LIMIT
    stepper = _make_stepper(cfg.scheme, grid, _potential(grid, barrier), dt_sign * cfg.dt)

    wanted = {step: j for j, step in enumerate(cfg._record_steps)}
    out: list[Snapshot] = []
    edge_scale = grid.dx / norm0**2

    def check_edge(step: int, amp: np.ndarray) -> None:
        head, tail = amp[:EDGE_CELLS], amp[-EDGE_CELLS:]
        edge = (np.vdot(head, head) + np.vdot(tail, tail)).real * edge_scale
        if not edge <= edge_limit:  # NaN trips it too
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
    last = cfg.n_steps if source is not None else cfg._record_steps[-1]
    for step in range(last + 1):
        if step:
            x = stepper.step(x)
        check_edge(step, x[0])
        if step in wanted:
            record(step, x)
    return out, stepper.state(x)


def propagate(psi: WaveFunction, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None, *,
              edge_limit: float | None = None) -> list[Snapshot]:
    """Evolve psi forward, returning snapshots at cfg.record_times.

    The leg stops at the last record time, which may fall short of the
    duration.  edge_limit overrides the default edge-density threshold.
    Renormalized post-selected states legitimately carry more relative
    weight near the boundary than a unit-norm packet, so callers that
    rescale states may rescale the guard with them.
    """
    return _run(psi, cfg, barrier, dt_sign=+1.0, edge_limit=edge_limit)[0]


def propagate_backward(psi: WaveFunction, cfg: PropagatorConfig,
                       barrier: BarrierSpec | None = None, *,
                       edge_limit: float | None = None) -> list[Snapshot]:
    """Evolve psi backward; snapshot times are elapsed backward time.

    Like propagate, the leg stops at the last record time.  Composing
    propagate_backward after propagate with the same config recovers the
    initial state up to the scheme's roundoff.
    """
    return _run(psi, cfg, barrier, dt_sign=-1.0, edge_limit=edge_limit)[0]


def propagate_with_source(psi: WaveFunction, cfg: PropagatorConfig,
                          barrier: BarrierSpec | None, mask: np.ndarray,
                          weights: np.ndarray | Sequence[float],
                          ) -> tuple[list[Snapshot], WaveFunction]:
    """Evolve psi forward beside a source row phi, in the same steps.

    phi starts at zero and gains weights[j] * mask * psi(t_j) at the j-th of
    cfg.record_times t_j, so at the duration T it is
    sum_j weights[j] U(T - t_j) mask psi(t_j).  Returns psi's snapshots at
    cfg.record_times and phi(T).  The guards watch psi alone.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(cfg.record_times),):
        raise ConfigError(
            f"need one source weight per record time ({len(cfg.record_times)}), "
            f"got shape {weights.shape}"
        )
    snaps, last = _run(psi, cfg, barrier, dt_sign=+1.0, edge_limit=None,
                       source=(np.asarray(mask, dtype=bool), weights))
    return snaps, WaveFunction(psi.grid, last[1])


def energy_expectation(psi: WaveFunction, barrier: BarrierSpec | None = None) -> float:
    """<H> evaluated with the spectral kinetic operator plus the grid potential."""
    grid = psi.grid
    f = np.fft.fft(psi.amp)
    kinetic = np.sum(0.5 * grid.k**2 * np.abs(f) ** 2) * grid.dx / grid.n
    potential = np.sum(_potential(grid, barrier) * psi.density()) * grid.dx
    return float((kinetic + potential) / psi.norm() ** 2)
