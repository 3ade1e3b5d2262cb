"""The one-detector-per-particle null model and the test against it.

The null model family: every particle deposits its full shift on exactly one
of the two detectors; detector noise is Gaussian with a width known from a
no-beam calibration; hit probability and per-hit shifts are constant across
the ensemble.  A model is then (p, delta_A, delta_B, sigma): with
probability p detector A records Normal(delta_A, sigma) while B records
Normal(0, sigma), otherwise the roles swap to (Normal(0, sigma),
Normal(delta_B, sigma)).

For fixed observed mean shifts mu_A = p delta_A and mu_B = (1-p) delta_B,
every member of the family obeys

    Var(a - b) >= 2 sigma^2 + [p delta_A^2 + (1-p) delta_B^2] - (mu_A - mu_B)^2

minimized over the free parameters.  A quantum pair of pointers can sit at
Var(a - b) = 2 sigma^2 with both means nonzero, strictly below the family's
floor, and the hypothesis test here asks whether sampled data resolves that
gap: it bootstraps the variance of a - b and compares the confidence bound
against the floor evaluated at the sample means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_width
from .errors import ConfigError

__all__ = [
    "CorpuscularModel",
    "EnsembleStats",
    "simulate_corpuscular",
    "corpuscular_min_variance",
    "corpuscularity_test",
]

MIN_TEST_SAMPLES = 100
# Relative roundoff allowed between an exact moment report and the floor.  A
# floor-saturating state (the which-path pair) meets the bound analytically,
# and its closed-form variance lands a few ulps to either side of it.
EXACT_TIE_REL = 1e-12


@dataclass(frozen=True)
class CorpuscularModel:
    """One-detector-per-particle model parameters plus sampling bookkeeping."""

    p: float
    delta_a: float
    delta_b: float
    sigma: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"hit probability must lie in [0, 1], got {self.p}")
        if self.sigma <= 0:
            raise ConfigError(f"noise width must be positive, got {self.sigma}")
        if self.n < 1:
            raise ConfigError(f"need at least one pair, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"sampling seed must be non-negative, got {self.seed}")


def simulate_corpuscular(model: CorpuscularModel) -> tuple[np.ndarray, np.ndarray]:
    """Draw (a, b) readout pairs; the draw order is fixed so runs replay."""
    rng = np.random.default_rng(model.seed)
    hits = rng.random(model.n) < model.p
    a = rng.normal(0.0, model.sigma, model.n)
    b = rng.normal(0.0, model.sigma, model.n)
    a[hits] += model.delta_a
    b[~hits] += model.delta_b
    return a, b


def corpuscular_min_variance(mu_a: float, mu_b: float, sigma: float) -> float:
    """Smallest Var(a - b) any model with the given mean shifts can reach.

    Substituting delta_A = mu_A/p and delta_B = mu_B/(1-p) leaves
    base + mu_A^2/p + mu_B^2/(1-p) with base = 2 sigma^2 - (mu_A - mu_B)^2.
    By Cauchy-Schwarz the last two terms are at least (mu_A + mu_B)^2,
    reached at p = mu_A/(mu_A + mu_B) (or in the limit p -> 0 or 1 when one
    mean vanishes), so the floor is 2 sigma^2 + 4 mu_A mu_B.
    """
    check_width(sigma, "noise width sigma")
    if mu_a < 0 or mu_b < 0:
        raise ConfigError(
            f"mean shifts must be non-negative, got ({mu_a}, {mu_b}); no member "
            "of the family with non-negative per-hit shifts reaches them"
        )
    return 2.0 * sigma**2 + 4.0 * mu_a * mu_b


@dataclass(frozen=True)
class EnsembleStats:
    """Moments, bootstrap interval, and the verdict against the null family.

    For exact (non-sampled) input the interval collapses to a point and
    seed/n_resamples are absent.
    """

    n_samples: int
    mean_a: float
    mean_b: float
    var_diff: float
    ci_low: float
    ci_high: float
    bound: float
    alpha: float
    verdict: str
    seed: int | None = None
    n_resamples: int = 0


def _verdict(ci_low: float, ci_high: float, bound: float) -> str:
    if not (np.isfinite(ci_low) and np.isfinite(ci_high) and np.isfinite(bound)):
        return "inconclusive"
    if ci_high < bound:
        return "rejects-corpuscular"
    return "consistent-with-corpuscular"


def _bootstrap_variance(diff: np.ndarray, n_resamples: int, seed: int,
                        alpha: float) -> tuple[float, float]:
    """Central two-sided percentile interval (alpha/2, 1-alpha/2) of the
    resampled variance.

    Resamples are drawn in chunks of about 2^17 indices, so each chunk's
    indices and gathered values stay in cache.  Generator.integers takes the
    indices one after another from the generator's stream, whose state
    carries over between calls, so the chunks draw the same indices as one
    (n_resamples, n) draw: the chunking does not change what a seed
    resamples.  The sample is centred once, and a resample g of it has
    variance (sum g^2 - (sum g)^2 / n) / (n - 1): two passes over g and no
    temporary of g's size.

    Every chunk gathers into one buffer, and its indices are int32, which
    Generator.integers draws from the same stream as int64 (n must stay
    below 2^31).  So a chunk allocates and frees only its 0.5 MiB of
    indices.  A fresh 1 MiB of gathered values per chunk and 1 MiB of int64
    indices freed 2 MiB a chunk, glibc's trim threshold once the bootstrap
    has set its mmap threshold to one such block.  Whether the heap top
    then went back to the system and was faulted in again every chunk
    depended on where earlier calls had left live blocks.  In one process
    serving repeated calls at n=2000 on a 2-vCPU Xeon VM, a call took either
    about 530 or about 3,300 page faults, and 15 or 19 ms.
    """
    rng = np.random.default_rng(seed)
    n = diff.size
    c = diff - diff.mean()
    boot = np.empty(n_resamples)
    rows = max(1, 131_072 // n)
    buffer = np.empty((min(rows, n_resamples), n))
    for start in range(0, n_resamples, rows):
        g = buffer[:min(rows, n_resamples - start)]
        # the indices are in range, and "clip" takes them without the
        # temporary that the default "raise" puts in front of out
        np.take(c, rng.integers(0, n, size=g.shape, dtype=np.int32), out=g, mode="clip")
        s1 = g.sum(axis=1)
        boot[start:start + len(g)] = (np.einsum("ij,ij->i", g, g) - s1 * s1 / n) / (n - 1)
    # the difference cancels to roundoff for a resample of one repeated
    # value, which can land below zero; a variance cannot
    np.maximum(boot, 0.0, out=boot)
    low, high = np.percentile(boot, [50.0 * alpha, 100.0 - 50.0 * alpha])
    return float(low), float(high)


def corpuscularity_test(samples, sigma0: float, alpha: float = 0.05,
                        seed: int = 0, n_resamples: int = 10_000) -> EnsembleStats:
    """Test readout data against the one-detector-per-particle floor.

    samples is either a pair of readout arrays (a, b) or an exact moment
    report dict with keys mean_a, mean_b, var_diff (as produced by the
    pointer module).  sigma0 is the calibrated noise width.  The interval
    (ci_low, ci_high) is the central two-sided percentile bootstrap interval
    at confidence 1 - alpha.  The verdict is rejects-corpuscular when the
    whole interval sits strictly below the floor evaluated at the sample
    means, consistent-with-corpuscular otherwise; an exact report within
    relative EXACT_TIE_REL of the floor sits on it and does not reject.
    inconclusive is reserved for degenerate input (non-finite statistics, or
    readouts with zero spread, where the calibrated width cannot describe
    the data at all).  A NaN or infinite readout is refused with ConfigError.

    A sample mean that comes out negative is treated as zero shift when the
    floor is evaluated: the model family under test only produces
    non-negative mean shifts, and the replacement can only lower the floor,
    which never manufactures a rejection.
    """
    check_width(sigma0, "calibrated noise width sigma0")
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"alpha must lie in (0, 0.5), got {alpha}")

    if isinstance(samples, dict):
        missing = {"mean_a", "mean_b", "var_diff"} - samples.keys()
        if missing:
            raise ConfigError(f"moment report lacks keys: {sorted(missing)}")
        mean_a = float(samples["mean_a"])
        mean_b = float(samples["mean_b"])
        var_diff = float(samples["var_diff"])
        bound = corpuscular_min_variance(mean_a, mean_b, sigma0)
        return EnsembleStats(
            n_samples=0, mean_a=mean_a, mean_b=mean_b, var_diff=var_diff,
            ci_low=var_diff, ci_high=var_diff, bound=bound, alpha=alpha,
            verdict=_verdict(var_diff, var_diff, bound * (1.0 - EXACT_TIE_REL)),
        )

    a, b = (np.asarray(arr, dtype=float) for arr in samples)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("samples must be two equal-length 1-D arrays")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError("readouts must be finite, got a NaN or infinite value")
    if a.size < MIN_TEST_SAMPLES:
        raise ConfigError(
            f"need at least {MIN_TEST_SAMPLES} pairs for the bootstrap, got {a.size}"
        )
    if n_resamples < 1:
        raise ConfigError(f"need at least one bootstrap resample, got {n_resamples}")
    if seed < 0:
        raise ConfigError(f"bootstrap seed must be non-negative, got {seed}")
    diff = a - b
    var_diff = float(np.var(diff, ddof=1))
    mean_a = float(np.mean(a))
    mean_b = float(np.mean(b))
    bound = corpuscular_min_variance(max(mean_a, 0.0), max(mean_b, 0.0), sigma0)
    ci_low, ci_high = _bootstrap_variance(diff, n_resamples, seed, alpha)
    # The interval brackets its own point estimate by construction except in
    # pathological corners; pin it so the invariant holds unconditionally.
    ci_low = min(ci_low, var_diff)
    ci_high = max(ci_high, var_diff)
    verdict = "inconclusive" if np.ptp(diff) == 0.0 else _verdict(
        ci_low, ci_high, bound)
    return EnsembleStats(
        n_samples=a.size, mean_a=mean_a, mean_b=mean_b, var_diff=var_diff,
        ci_low=ci_low, ci_high=ci_high, bound=bound, alpha=alpha,
        verdict=verdict, seed=seed, n_resamples=n_resamples,
    )
