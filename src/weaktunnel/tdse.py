"""Time-dependent Schrodinger propagation on a periodic grid (hbar = m = 1).

Two deliberately independent schemes are provided so they can cross-check
each other:

``spectral-split-step``
    Symmetric Strang splitting: half potential kick, exact kinetic phase in
    Fourier space, half potential kick.  Second order in dt, spectrally
    accurate in space, unitary up to FFT roundoff.  The exit half kick of
    one step and the entry half kick of the next are fused into one full
    kick (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)): from
    step 0 on, the stepper carries psi / d with d = V^(1/2) and V = exp(-i
    dt v), so every step, the first included, kicks by V = d^2, and a
    record multiplies a side copy by d, the exit half kick still pending.
    The carried rows, and so every later record, do not depend on which
    steps are recorded.  The step runs in one of two carried forms, picked
    as implicit-fd's are (below):

    - *Grid amplitudes, through an FFT pair*: x <- IFFT(K FFT(d^2 x)), in
      place on one copy of the stack per advance.  d is exactly 1 off the
      barrier, so a kick multiplies the span of the barrier cells alone.
    - *Fourier coefficients z = FFT(psi / d)*: V - 1 is nonzero on the m
      barrier cells alone, so a step is z <- lam FFT(V IFFT(z)) = lam z -
      P (Q z) with lam = exp(-i dt k^2/2), Q the inverse-DFT rows at the
      cells and P = -lam (forward-DFT columns at the cells) diag(V - 1),
      the rank-m form of the Fourier-space Crank-Nicolson step below, in
      the same blocks.

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
    The step runs in one of two carried forms, picked when the leg starts:

    - *Grid amplitudes, through an FFT pair*: y = IFFT(2/eig FFT(x)), then
      the correction.  Its columns, shifted copies of the first column of
      C^-1, decay geometrically away from the cells, so a step corrects
      only the rows where they reach eps times their peak: 145 of 4096
      around the default scenario's 103 cells.
    - *Fourier coefficients z = FFT(x)*: the circulant part is diagonal
      there and the correction has rank m, the cell count, so a step is
      z <- M z = (2/eig - 1) z - P (Q z) through m dense DFT rows of n
      entries each and no FFT.

    The two schemes share the FFT but not the discretization: spectral
    kinetic energy and Strang splitting against a 16th-order stencil and
    the Cayley form.  The tests check both implicit-fd forms against a
    sparse LU of the full periodic operator, each scheme's two forms
    against each other, and split-step against a Chebyshev expansion of the
    grid Hamiltonian.  The grid needs more than 16 points for the stencil
    to fit.

Both Fourier forms step z <- M z = lam z - P (Q z) in blocks of up to k
steps and no FFT: one matvec reads, from the block's first z, the m cell
amplitudes Q M^i z that each of its steps takes and the 2 EDGE_CELLS edge
amplitudes the edge guard takes after each, and a second matvec adds the k
corrections to lam^k z at once.  A record takes one IFFT.  An advance over
a record gap allocates its buffers once: row 0's reads of every block land
in one (blocks, reads) array, whose edge part is squared once per gap, the
stack alternates between two arrays, and lam^j z goes through one
temporary.  A scheme's Fourier form runs iff k = DENSE_ROWS_BYTES // (bytes
of one step's dense rows, 2m + 2 EDGE_CELLS of n complex entries) is at
least 1, the same k for both schemes, and its FFT pair otherwise: with 1.5
MiB, k=4 on the bench's trace-cn and tiny-split barrier (8 cells at n=1024)
and the FFT pair on the trace-split barrier (32 cells at n=4096).  The two
forms cross at different row sizes on different grids, so no one budget
picks the faster form on every barrier; the docstring of
tests/test_tdse.py::test_implicit_fd_steps_in_fourier_space_while_its_rows_fit
gives the measured step times and the barriers that land on the slower
form.

An Evolution is one Hamiltonian on a grid, the barrier's potential, with a
scheme and dt; it builds its stepper once and runs every leg through it,
so a pre/post pair's forward and backward legs share one stepper, and no
stepper outlives the Evolution that built it.  propagate,
propagate_backward and propagate_with_source each build one Evolution for
one leg.  A backward leg is the forward leg of the complex-conjugate state
with its records conjugated: for a real potential both schemes are
time-reversal symmetric, S(-dt) = C S(dt) C with C the complex
conjugation, since conj(exp(-i dt v)) = exp(i dt v) and likewise for the
kinetic phase and the Cayley factors.  It differs from a stepper built at
-dt only in roundoff (tests/test_tdse.py gives the measured gaps).

A leg is its record steps: PropagatorConfig takes the integer steps j to
record, the leg runs from step 0 to the last of them (its n_steps) and
returns its state at each (at step 0, psi itself), and record_times are
j * dt, so no float time is rounded here.  Between records a stepper's
advance takes the whole gap and returns row 0's edge weight after each
step.  A leg steps a stack of rows at once: the FFT-pair forms batch their
FFTs over the rows, and the Woodbury correction and the Fourier forms'
matvecs go one row at a time, so a row comes out bit for bit as stepped
alone.  Row 0 is the state; a source leg (Evolution.with_source) adds a
second row that collects a weighted region source at the record steps and
is read at the last record, so a conditional dwell needs one forward leg
and no backward one.  Every stepper carries the rows B(psi / d), B the
identity (grid amplitudes) or the FFT (Fourier coefficients) and d =
V^(1/2) under split-step or 1 under Crank-Nicolson: it turns the initial
stack into carried rows, a carried row back into a state, and the weighted
masked state into the carried form in which _run feeds it to the source
row.

Runtime guards watch row 0: probability reaching the domain edges, checked
after every step (wrap-around would silently corrupt the run, and a packet
can cross the boundary and come back between two records), and norm drift
at every record (a broken solve or unstable step shows up there first).
The edge weight is absolute, sum |psi|^2 dx over the edge cells against
EDGE_PROBABILITY_LIMIT, so a leg from a projected state P psi of norm^2 p
may carry 1e-8/p of relative edge weight: contamination competes with the
physics at the scale of the unprojected state.  Norm drift is relative to
the leg's starting norm.  A non-finite edge weight is a scheme failure, not
an edge density, and raises SchemeInstabilityError.  A step through an FFT
spreads a non-finite amplitude anywhere to every cell, and in Fourier space
each edge read sums every coefficient, so the per-step edge check catches
it within one step; a finite step is unitary up to roundoff, so norm drift
builds up slowly enough to be checked at the records only.  A stepper only
reads the edge weights; _run judges every step's weight and names the
first that fails, so the guard names the step where it tripped even when
later steps of the same gap pass again.  A failing leg steps to the end of
its gap before it raises.  Through an FFT pair the edge guard reads the
carried rows psi / d; d is unimodular, so the cell magnitudes are the same
up to roundoff.  In Fourier space it reads the block's edge amplitudes, to
the roundoff of an n-term sum, far below the limit.
Recorded states keep their global phase and are never renormalized.

scipy.fft is imported when a stepper is built, not with this module, so
importing the package costs numpy alone; the stepper keeps the routines for
its steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import BarrierSpec, Grid, WaveFunction
from .errors import ConfigError, EdgeDensityError, SchemeInstabilityError

__all__ = [
    "SCHEMES",
    "PropagatorConfig",
    "Evolution",
    "propagate",
    "propagate_backward",
    "propagate_with_source",
]

SCHEMES = ("spectral-split-step", "implicit-fd")

EDGE_CELLS = 4  # cells at each domain end watched by the edge guard
EDGE_PROBABILITY_LIMIT = 1e-8
NORM_DRIFT_LIMIT = 1e-6

STENCIL_HALF_WIDTH = 8  # 16th-order central second derivative
# either scheme steps in Fourier space in blocks of as many steps as their
# dense rows fit this many bytes, while one step's rows fit
DENSE_ROWS_BYTES = 3 << 19


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


def _check_step(dt: float, scheme: str) -> None:
    if not 0 < dt < np.inf:  # NaN fails it too
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _record_steps(record_steps) -> tuple[int, ...]:
    """The record steps of a leg as ints: one or more strictly increasing
    non-negative integers, else ConfigError."""
    try:
        steps = tuple(record_steps)
    except TypeError:  # a bare step or None lists no steps
        steps = ()
    # bool is an Integral but names no step; NaN and 2.5 are not Integral
    whole = all(isinstance(j, numbers.Integral) and not isinstance(j, bool) for j in steps)
    if not (steps and whole and steps[0] >= 0
            and all(a < b for a, b in zip(steps, steps[1:]))):
        raise ConfigError("record_steps must be one or more strictly increasing "
                          f"non-negative integers, got {record_steps!r}")
    return tuple(int(j) for j in steps)


@dataclass(frozen=True)
class PropagatorConfig:
    """Time step, record steps and scheme of a leg, which runs from step 0 to
    its last record step, n_steps.  Record times j * dt are elapsed time
    along the leg, forward and backward alike."""

    dt: float
    record_steps: tuple[int, ...]
    scheme: str = "spectral-split-step"

    def __post_init__(self) -> None:
        _check_step(self.dt, self.scheme)
        object.__setattr__(self, "record_steps", _record_steps(self.record_steps))

    @property
    def n_steps(self) -> int:
        """The steps the leg takes: its last record step."""
        return self.record_steps[-1]

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def record_times(self) -> tuple[float, ...]:
        return tuple(j * self.dt for j in self.record_steps)


def _potential(grid: Grid, barrier: BarrierSpec | None) -> np.ndarray:
    return barrier.potential(grid) if barrier is not None else np.zeros(grid.n)


def _edge_weight(amps: np.ndarray) -> float:
    """Sum of |amplitude|^2 over the edge cells of a row of grid amplitudes,
    without dx."""
    head, tail = amps[:EDGE_CELLS], amps[-EDGE_CELLS:]
    return (np.vdot(head, head) + np.vdot(tail, tail)).real


class _Stepper:
    """Carry and state of every stepper, and the per-step advance of the
    FFT-pair ones.

    A stepper carries the rows B(psi / d) of a stack: B is the identity
    (grid amplitudes, stepped through an FFT pair) or the FFT (Fourier
    coefficients, fourier = True), and d is a unimodular diagonal, V^(1/2)
    under split-step and 1 under Crank-Nicolson.  A subclass's step or
    advance moves the carried rows; no attribute changes once a stepper is
    built, so what it returns does not depend on what it stepped before.
    """

    fourier = False

    def __init__(self, d: np.ndarray | float) -> None:
        import scipy.fft

        self.d = d
        self.fft, self.ifft = scipy.fft.fft, scipy.fft.ifft

    def carry(self, amps: np.ndarray) -> np.ndarray:
        rows = amps / self.d
        return self.fft(rows) if self.fourier else rows

    def state(self, x: np.ndarray) -> np.ndarray:
        return (self.ifft(x) if self.fourier else x) * self.d

    def advance(self, x: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Take steps steps and read row 0's edge weight after each.  Returns
        the stack after the last step and one weight per step; x is left as
        it was."""
        x = x.copy()
        weights = np.empty(steps)
        for s in range(steps):
            x = self.step(x)
            weights[s] = _edge_weight(x[0])
        return x, weights


class _SplitStep(_Stepper):
    """Strang steps with the half kicks of adjacent steps fused into one.

    The carried rows are psi / d with d = V^(1/2), so a step is x <-
    IFFT(K FFT(d^2 x)), the full kick V = d^2 and the kinetic phase K, and
    state applies the pending exit half kick d.  1/n is folded into K.  d
    is exactly 1 off the barrier, so a kick multiplies the span of its cells
    alone, in place on the copy of the stack that advance steps.
    """

    def __init__(self, grid: Grid, d: np.ndarray, lam: np.ndarray, cells: np.ndarray) -> None:
        super().__init__(d)
        self.span = slice(cells[0], cells[-1] + 1) if cells.size else slice(0, 0)
        self.kick = d[self.span] ** 2
        self.kinetic = lam / grid.n

    def step(self, x: np.ndarray) -> np.ndarray:
        x[:, self.span] *= self.kick
        x = self.fft(x, overwrite_x=True)
        x *= self.kinetic
        return self.ifft(x, norm="forward", overwrite_x=True)


def _cayley(grid: Grid, v: np.ndarray, dt: float):
    """The parts of the Cayley step with A = C + i tau diag(v), tau = dt/2.

    Returns the spectrum eig of the circulant C = 1 + i tau (-Laplacian/2),
    the first column g of C^-1 (C^-1[i, j] = g[i - j]), the barrier cells
    (v != 0) and the Woodbury matrix K, so that
    A^-1 = C^-1 - C^-1[:, cells] K C^-1[cells, :].
    """
    n = grid.n
    m = STENCIL_HALF_WIDTH
    if n <= 2 * m:
        raise ConfigError(
            f"implicit-fd needs more than {2 * m} grid points for its "
            f"{2 * m}th-order periodic stencil, got n={n}"
        )
    import scipy.fft

    tau = 0.5 * dt
    # first column of -Laplacian/2; its spectrum is real since the stencil is
    # symmetric
    column = np.zeros(n)
    column[np.arange(-m, m + 1) % n] = (-0.5 / grid.dx**2) * _second_derivative_stencil(m)
    eig = 1.0 + 1j * tau * scipy.fft.fft(column).real
    g = scipy.fft.ifft(1.0 / eig)
    # A = C + U D U^T with U selecting the barrier cells and D = i tau v
    # there, so A^-1 = C^-1 - C^-1 U K U^T C^-1 with K = M^-1 D and the
    # capacitance matrix M = I + D C^-1[cells, cells].  det A = det C det M,
    # and A = 1 + i tau H and C are invertible for Hermitian H, so M is.
    cells = np.flatnonzero(v)
    d = 1j * tau * v[cells]
    inner = g[(cells[:, None] - cells) % n]
    k = np.linalg.solve(np.eye(cells.size) + d[:, None] * inner, np.diag(d))
    return eig, g, cells, k


class _CrankNicolson(_Stepper):
    """Cayley steps x <- 2 A^-1 x - x with A = C + i tau diag(v).

    C = 1 + i tau (-Laplacian/2) is circulant, so an FFT diagonalizes it and
    a step is y = IFFT(FFT(x) 2/eig) followed by a Woodbury correction on the
    cells where v != 0.  eig, g, cells and the Woodbury matrix are _cayley's.
    """

    def __init__(self, grid: Grid, eig: np.ndarray, g: np.ndarray, cells: np.ndarray,
                 woodbury: np.ndarray) -> None:
        super().__init__(1.0)
        n = grid.n
        self.cells = cells
        self.scale = 2.0 / eig
        # |g| decays geometrically away from offset 0, so a step corrects only
        # the rows nearer a cell than the first offset r where |g| falls below
        # eps times its peak; the terms left out are roundoff on the
        # correction's largest.  Beyond r the FFT's own roundoff can exceed
        # that level at a large tau, so it is not read.
        size = np.abs(g[:n // 2 + 1])
        below = size < np.finfo(np.float64).eps * size.max()
        r = int(np.argmax(below)) if below.any() else n // 2 + 1
        self.rows = np.unique((self.cells[:, None] + np.arange(1 - r, r)) % n)
        # C^-1[rows, cells] K, so a step's correction is one matvec
        self.gk = g[(self.rows[:, None] - self.cells) % n] @ woodbury

    def step(self, x: np.ndarray) -> np.ndarray:
        # one batched FFT pair over the stack's rows; the correction goes one
        # row at a time, so a row stepped in a stack comes out bit for bit as
        # stepped alone
        y = self.fft(x)
        y *= self.scale
        y = self.ifft(y, overwrite_x=True)
        for row in y:
            row[self.rows] -= self.gk @ row[self.cells]
        y -= x
        return y


def _inverse_dft_rows(n: int, at: np.ndarray) -> np.ndarray:
    """The rows of the inverse DFT (1/n included) at the cells at: row c
    reads amplitude c of IFFT(z) as row @ z."""
    # exp(2 pi i c k / n), each phase taken from the integer c k mod n
    turn = np.exp((2j * np.pi / n) * np.arange(n))
    return turn[(at[:, None] * np.arange(n)) % n] / n


class _FourierSpace(_Stepper):
    """A scheme's step on Fourier coefficients, up to k steps per pair of
    matvecs.

    The scheme hands over its step as z <- M z = lam z - P (Q z), with lam
    diagonal and Q the m rows that read its barrier cells, and its diagonal
    d: the carried row is z = FFT(psi / d).  A block of j <= k steps from
    step s makes two matvecs:

    - the reads u_i = Q M^i z_s, i = 0 .. k-1, which the steps of the block
      take, and the amplitudes E M^i z_s at the 2 EDGE_CELLS edge cells, i =
      1 .. k, which the edge guard takes (E the inverse-DFT rows there; d is
      unimodular, so these read the state's edge weight);
    - z_{s+j} = lam^j z_s - [u_0 .. u_{j-1}] B_j, with B_j = [lam^(j-1) P^T;
      ..; lam P^T; P^T] the last j m rows of B_k.

    The rows Q M^i and E M^i are built once, from y M = lam y - (y P) Q.
    Every read comes from the block's first z, so no read is carried from
    one block to the next; a carried u = Q z would carry its roundoff into
    the next block through Q lam^(k-1) P, whose spectral radius exceeds 1 on
    some barriers.  The rows past row 0 read their u alone.  The dense rows,
    2m + 2 EDGE_CELLS of n entries per step of a block, are what
    _make_stepper sizes k by.
    """

    fourier = True

    def __init__(self, grid: Grid, d: np.ndarray | float, lam: np.ndarray, q: np.ndarray,
                 p: np.ndarray, k: int) -> None:
        super().__init__(d)
        n = grid.n
        self.k = k
        m = self.m = q.shape[0]
        self.lam_pow = np.cumprod(np.broadcast_to(lam, (k, n)), axis=0)  # lam^1 .. lam^k
        pt = np.ascontiguousarray(p.T)
        b = np.empty((k, m, n), dtype=self.lam_pow.dtype)
        np.multiply(self.lam_pow[:k - 1][::-1, None], pt, out=b[:k - 1])  # lam^(k-1) .. lam
        b[k - 1] = pt
        self.b = b.reshape(k * m, n)
        y = np.concatenate([q, _inverse_dft_rows(n, np.r_[:EDGE_CELLS, n - EDGE_CELLS:n])])
        e = 2 * EDGE_CELLS
        self.r = np.empty((k * (m + e), n), dtype=y.dtype)
        for i in range(k):
            self.r[i * m:(i + 1) * m] = y[:m]
            y = lam * y - (y @ p) @ q
            self.r[k * m + i * e:k * m + (i + 1) * e] = y[m:]

    def advance(self, x: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Take steps steps in blocks of up to k and read row 0's edge weight
        after each.  Returns the stack after the last step and one weight per
        step; x is left as it was.

        Every buffer is allocated once per call: row 0's reads of each block
        land in one row of `reads`, the stack alternates between two arrays,
        and lam^j z goes through one temporary.
        """
        m, k = self.m, self.k
        km, blocks = k * m, -(-steps // k)
        reads = np.empty((blocks, self.r.shape[0]), dtype=x.dtype)
        row_reads = np.empty(km, dtype=x.dtype)  # a row past row 0 reads no edges
        scaled = np.empty(x.shape[1], dtype=x.dtype)
        stacks = (np.empty_like(x), np.empty_like(x))
        for block, done in enumerate(range(0, steps, k)):
            j = min(k, steps - done)
            y = stacks[block % 2]
            # one row at a time, so a row stepped in a stack comes out as
            # stepped alone
            for i, (z, xz) in enumerate(zip(y, x)):
                u = np.matmul(self.r, xz, out=reads[block]) if i == 0 else \
                    np.matmul(self.r[:km], xz, out=row_reads)
                np.matmul(u[:j * m], self.b[(k - j) * m:], out=z)
                np.multiply(self.lam_pow[j - 1], xz, out=scaled)
                np.subtract(scaled, z, out=z)
            x = y
        # row 0's edge amplitudes after each step, as real and imaginary
        # parts; the last block's reads past its j steps are dropped
        edges = np.square(reads[:, km:].view(np.float64))
        return x, edges.reshape(blocks * k, -1)[:steps].sum(axis=1)


def _split_step(grid: Grid, v: np.ndarray, dt: float, k: int) -> _Stepper:
    """The fused Strang step, through its FFT pair at k = 0 and in Fourier
    space in blocks of up to k steps otherwise.

    With V = exp(-i dt v) and d = V^(1/2), on z = FFT(psi / d) a step is z
    <- lam FFT(V IFFT(z)) = lam z - P (Q z) with lam = exp(-i dt grid.k^2 /
    2), Q = the inverse-DFT rows at the cells where V != 1 (v != 0), and P =
    -lam (forward-DFT columns at the cells) diag(V - 1) there.
    """
    n = grid.n
    lam = np.exp(-0.5j * dt * grid.k**2)
    d = np.exp(-0.5j * dt * v)
    cells = np.flatnonzero(v)
    if not k:
        return _SplitStep(grid, d, lam, cells)
    q = _inverse_dft_rows(n, cells)
    # n conj(q)^T holds the forward-DFT columns at the cells
    p = -(n * lam)[:, None] * q.conj().T * np.expm1(-1j * dt * v[cells])
    return _FourierSpace(grid, d, lam, q, p, k)


def _crank_nicolson(grid: Grid, v: np.ndarray, dt: float, k: int) -> _Stepper:
    """The Cayley step, through its FFT pair at k = 0 and in Fourier space
    in blocks of up to k steps otherwise.

    2 A^-1 x - x is diagonal in Fourier space up to the Woodbury term, so on
    z = FFT(x) a step is z <- lam z - P (Q z) with lam = 2/eig - 1, Q = the
    inverse-DFT rows at the m cells over eig, and P = 2 (forward-DFT
    columns at the cells) K over eig.
    """
    eig, g, cells, woodbury = _cayley(grid, v, dt)
    if not k:
        return _CrankNicolson(grid, eig, g, cells, woodbury)
    inverse = _inverse_dft_rows(grid.n, cells)
    p = (2.0 * grid.n / eig)[:, None] * inverse.conj().T @ woodbury
    lam, q = 2.0 / eig - 1.0, inverse / eig
    # freed before _FourierSpace allocates its rows: with them still live,
    # glibc gave the heap top back after each leg and each trace-cn fig2 took
    # twice the minor page faults (1,150 against 575)
    del eig, g, woodbury, inverse
    return _FourierSpace(grid, 1.0, lam, q, p, k)


def _make_stepper(scheme: str, grid: Grid, v: np.ndarray, dt: float) -> _Stepper:
    # a block's dense rows per step: m of B_k, m + 2 EDGE_CELLS of reads
    step_bytes = ((2 * np.count_nonzero(v) + 2 * EDGE_CELLS) * grid.n
                  * np.dtype(np.complex128).itemsize)
    build = _split_step if scheme == "spectral-split-step" else _crank_nicolson
    return build(grid, v, dt, DENSE_ROWS_BYTES // step_bytes)


def _conj(psi: WaveFunction) -> WaveFunction:
    return WaveFunction(psi.grid, np.conj(psi.amp))


@dataclass(frozen=True, eq=False)
class Evolution:
    """The propagator of H = -Laplacian/2 + v on a grid, v the barrier's
    potential (zero for None), stepped by a scheme at dt.  It builds its
    stepper once and runs every leg through it: forward, backward and
    forward beside a source row.  A leg's record steps are one or more
    strictly increasing non-negative integers; it runs to the last of them
    and returns the state at each.  No attribute changes after it is built.

    A backward leg is the forward leg of the complex-conjugate state with its
    records conjugated: for a real potential both schemes are symmetric
    under time reversal, S(-dt) = C S(dt) C with C the complex conjugation.
    """

    grid: Grid
    barrier: BarrierSpec | None
    dt: float
    scheme: str = "spectral-split-step"
    _stepper: _Stepper = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_step(self.dt, self.scheme)
        object.__setattr__(self, "_stepper", _make_stepper(
            self.scheme, self.grid, _potential(self.grid, self.barrier), self.dt))

    def forward(self, psi: WaveFunction, record_steps: Sequence[int]) -> list[WaveFunction]:
        """psi at each record step.  The edge guard reads absolute
        probability, so a state of norm below one may carry proportionally
        more relative edge weight."""
        return self._run(psi, record_steps)[0]

    def backward(self, psi: WaveFunction, record_steps: Sequence[int]) -> list[WaveFunction]:
        """psi evolved backward, at each record step counted in elapsed
        backward steps.  Run after forward over the same steps, it recovers
        the initial state up to the scheme's roundoff."""
        return [_conj(state) for state in self._run(_conj(psi), record_steps)[0]]

    def with_source(self, psi: WaveFunction, record_steps: Sequence[int], mask: np.ndarray,
                    weights: np.ndarray | Sequence[float]) -> tuple[list[WaveFunction],
                                                                    WaveFunction]:
        """Evolve psi forward beside a source row phi, in the same steps.

        phi starts at zero and gains weights[j] * mask * psi(t_j) at the j-th
        record step.  The leg stops at the last record t_J, so phi is read at
        the instant of psi's last record: returns psi at each record and
        phi(t_J) = sum_j weights[j] U(t_J - t_j) mask psi(t_j).  The guards
        watch psi alone.
        """
        steps = _record_steps(record_steps)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(steps),):
            raise ConfigError(
                f"need one source weight per record step ({len(steps)}), "
                f"got shape {weights.shape}"
            )
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.grid.n,):
            raise ConfigError(f"need one mask cell per grid point ({self.grid.n}), "
                              f"got shape {mask.shape}")
        states, last = self._run(psi, steps, source=(mask, weights))
        return states, WaveFunction(self.grid, last[1])

    def _run(self, psi: WaveFunction, record_steps: Sequence[int],
             source: tuple[np.ndarray, np.ndarray] | None = None,
             ) -> tuple[list[WaveFunction], np.ndarray]:
        """Step the stack (psi, source row) to the last record and return psi
        at each record and the stack there.  Only psi is guarded and
        recorded; a source (mask, weights) adds weights[j] * mask * psi to the
        source row at the j-th record."""
        steps = _record_steps(record_steps)
        grid, stepper = self.grid, self._stepper
        if psi.grid != grid:
            raise ConfigError(f"the state lives on {psi.grid}, the evolution on {grid}")
        norm0 = psi.norm()
        if not np.isfinite(norm0):
            raise ConfigError("cannot propagate a state with a non-finite norm")
        if norm0 == 0.0:
            raise ConfigError("cannot propagate the zero state")
        out: list[WaveFunction] = []

        def check_edge(first: int, weights: np.ndarray, x: np.ndarray) -> None:
            """Raise at the first of steps first, first + 1, .. whose edge
            weight fails the guard; NaN fails.  x is the stack at the last of
            them."""
            failed = np.flatnonzero(~(weights * grid.dx <= EDGE_PROBABILITY_LIMIT))
            if not failed.size:
                return
            step = first + int(failed[0])
            edge = weights[failed[0]] * grid.dx
            if not np.isfinite(edge):
                amp = stepper.state(x[0])
                bad = amp[~np.isfinite(amp)]
                raise SchemeInstabilityError(
                    f"non-finite amplitude {bad[0] if bad.size else edge} after "
                    f"{step} steps of {self.scheme} (t={step * self.dt})"
                )
            raise EdgeDensityError(
                f"probability {edge:.3e} reached the domain edge at t={step * self.dt}; "
                "enlarge the domain or shorten the run"
            )

        def record(step: int, j: int, x: np.ndarray) -> None:
            # before the first step the state is psi, not its round trip
            # through the carried form
            state = psi if step == 0 else WaveFunction(grid, stepper.state(x[0]))
            drift = abs(state.norm() / norm0 - 1.0)
            if not drift <= NORM_DRIFT_LIMIT:
                raise SchemeInstabilityError(
                    f"norm drifted by {drift:.3e} after {step} steps of {self.scheme}"
                )
            out.append(state)
            if source is not None:
                mask, weights = source
                x[1] += stepper.carry(weights[j] * (mask * state.amp))

        amps = np.zeros((1 if source is None else 2, grid.n), dtype=np.complex128)
        amps[0] = psi.amp
        x = stepper.carry(amps)
        check_edge(0, np.array([_edge_weight(psi.amp)]), x)
        done = 0
        for j, step in enumerate(steps):
            if step > done:
                x, weights = stepper.advance(x, step - done)
                check_edge(done + 1, weights, x)
                done = step
            record(step, j, x)
        return out, stepper.state(x)


def propagate(psi: WaveFunction, cfg: PropagatorConfig,
              barrier: BarrierSpec | None = None) -> list[WaveFunction]:
    """Evolve psi forward cfg.n_steps steps, returning psi at each of
    cfg.record_steps: Evolution.forward."""
    return Evolution(psi.grid, barrier, cfg.dt, cfg.scheme).forward(psi, cfg.record_steps)


def propagate_backward(psi: WaveFunction, cfg: PropagatorConfig,
                       barrier: BarrierSpec | None = None) -> list[WaveFunction]:
    """Evolve psi backward cfg.n_steps steps; record steps count elapsed
    backward steps: Evolution.backward."""
    return Evolution(psi.grid, barrier, cfg.dt, cfg.scheme).backward(psi, cfg.record_steps)


def propagate_with_source(psi: WaveFunction, cfg: PropagatorConfig,
                          barrier: BarrierSpec | None, mask: np.ndarray,
                          weights: np.ndarray | Sequence[float],
                          ) -> tuple[list[WaveFunction], WaveFunction]:
    """Evolve psi forward beside a source row: Evolution.with_source."""
    return Evolution(psi.grid, barrier, cfg.dt, cfg.scheme).with_source(
        psi, cfg.record_steps, mask, weights)
