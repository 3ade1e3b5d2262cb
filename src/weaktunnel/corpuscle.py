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

from .errors import ConfigError

__all__ = [
    "CorpuscularModel",
    "EnsembleStats",
    "simulate_corpuscular",
    "corpuscular_min_variance",
    "population_difference_variance",
    "corpuscularity_test",
]

MIN_TEST_SAMPLES = 100


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

    def mean_shifts(self) -> tuple[float, float]:
        return self.p * self.delta_a, (1.0 - self.p) * self.delta_b


def simulate_corpuscular(model: CorpuscularModel) -> tuple[np.ndarray, np.ndarray]:
    """Draw (a, b) readout pairs; the draw order is fixed so runs replay."""
    rng = np.random.default_rng(model.seed)
    hits = rng.random(model.n) < model.p
    a = rng.normal(0.0, model.sigma, model.n)
    b = rng.normal(0.0, model.sigma, model.n)
    a[hits] += model.delta_a
    b[~hits] += model.delta_b
    return a, b


def population_difference_variance(model: CorpuscularModel) -> float:
    """Exact Var(a - b) of the model, no sampling."""
    mu_a, mu_b = model.mean_shifts()
    second = model.p * model.delta_a**2 + (1.0 - model.p) * model.delta_b**2
    return 2.0 * model.sigma**2 + second - (mu_a - mu_b) ** 2


def corpuscular_min_variance(mu_a: float, mu_b: float, sigma: float) -> float:
    """Smallest Var(a - b) any model with the given mean shifts can reach.

    Substituting delta_A = mu_A/p and delta_B = mu_B/(1-p) leaves
    base + mu_A^2/p + mu_B^2/(1-p) with base = 2 sigma^2 - (mu_A - mu_B)^2.
    By Cauchy-Schwarz the last two terms are at least (mu_A + mu_B)^2,
    reached at p = mu_A/(mu_A + mu_B) (or in the limit p -> 0 or 1 when one
    mean vanishes), so the floor is 2 sigma^2 + 4 mu_A mu_B.
    """
    if sigma <= 0:
        raise ConfigError(f"noise width must be positive, got {sigma}")
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

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "var_diff": self.var_diff,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "bound": self.bound,
            "alpha": self.alpha,
            "verdict": self.verdict,
            "seed": self.seed,
            "n_resamples": self.n_resamples,
        }


def _verdict(ci_low: float, ci_high: float, bound: float) -> str:
    if not (np.isfinite(ci_low) and np.isfinite(ci_high) and np.isfinite(bound)):
        return "inconclusive"
    if ci_high < bound:
        return "rejects-corpuscular"
    return "consistent-with-corpuscular"


def _bootstrap_variance(diff: np.ndarray, n_resamples: int, seed: int,
                        alpha: float) -> tuple[float, float]:
    """Central two-sided percentile interval (alpha/2, 1-alpha/2) of the
    resampled variance."""
    rng = np.random.default_rng(seed)
    n = diff.size
    boot = np.empty(n_resamples)
    # Index blocks sized to keep the resample matrix around 10^7 entries.
    block = max(1, 10_000_000 // n)
    for start in range(0, n_resamples, block):
        stop = min(start + block, n_resamples)
        idx = rng.integers(0, n, size=(stop - start, n))
        boot[start:stop] = np.var(diff[idx], axis=1, ddof=1)
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
    means, consistent-with-corpuscular otherwise; inconclusive is reserved
    for degenerate input (non-finite statistics, or readouts with zero
    spread, where the calibrated width cannot describe the data at all).

    A sample mean that comes out negative is treated as zero shift when the
    floor is evaluated: the model family under test only produces
    non-negative mean shifts, and the replacement can only lower the floor,
    which never manufactures a rejection.
    """
    if sigma0 <= 0:
        raise ConfigError(f"calibrated noise width must be positive, got {sigma0}")
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
            verdict=_verdict(var_diff, var_diff, bound),
        )

    a, b = (np.asarray(arr, dtype=float) for arr in samples)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("samples must be two equal-length 1-D arrays")
    if a.size < MIN_TEST_SAMPLES:
        raise ConfigError(
            f"need at least {MIN_TEST_SAMPLES} pairs for the bootstrap, got {a.size}"
        )
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
