"""One-detector-per-particle floor: sampler, bound, and hypothesis test.

The variance floor has a closed form 2 sigma^2 + 4 mu_a mu_b for positive
means; the library returns it directly, and a two-stage grid search here
acts as an independent oracle for the minimization behind it.  Full operating
characteristics (false-rejection rate, power) live in the acceptance tests;
this file keeps a cheap deterministic version of the null-rate check.
"""

import math

import numpy as np
import pytest

from weaktunnel.corpuscle import (MIN_TEST_SAMPLES, CorpuscularModel,
                                  corpuscular_min_variance, corpuscularity_test,
                                  population_difference_variance,
                                  simulate_corpuscular)
from weaktunnel.errors import ConfigError


def floor_by_grid_search(mu_a, mu_b, sigma):
    """Two-stage dense grid over the hit probability."""
    def total(p):
        return (2.0 * sigma**2 - (mu_a - mu_b) ** 2
                + mu_a**2 / p + mu_b**2 / (1.0 - p))

    p = np.linspace(1e-7, 1.0 - 1e-7, 20_001)
    vals = total(p)
    j = int(np.argmin(vals))
    lo, hi = p[max(0, j - 1)], p[min(len(p) - 1, j + 1)]
    p2 = np.linspace(lo, hi, 4_001)
    return float(np.min(total(p2)))


def saturating_model(mu_a, mu_b, sigma, n, seed):
    """The family member that sits exactly on the floor for these means."""
    p = mu_a / (mu_a + mu_b)
    return CorpuscularModel(p=p, delta_a=mu_a / p, delta_b=mu_b / (1.0 - p),
                            sigma=sigma, n=n, seed=seed)


def test_sampler_replays_and_seeds_matter():
    m = CorpuscularModel(p=0.4, delta_a=0.5, delta_b=0.8, sigma=1.0, n=500, seed=3)
    a1, b1 = simulate_corpuscular(m)
    a2, b2 = simulate_corpuscular(m)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    m2 = CorpuscularModel(p=0.4, delta_a=0.5, delta_b=0.8, sigma=1.0, n=500, seed=4)
    a3, _ = simulate_corpuscular(m2)
    assert not np.array_equal(a1, a3)


def test_sampler_moments_match_population():
    m = CorpuscularModel(p=0.3, delta_a=1.2, delta_b=0.7, sigma=0.8,
                         n=200_000, seed=12)
    a, b = simulate_corpuscular(m)
    mu_a, mu_b = m.mean_shifts()
    assert np.mean(a) == pytest.approx(mu_a, abs=0.01)
    assert np.mean(b) == pytest.approx(mu_b, abs=0.01)
    assert np.var(a - b, ddof=1) == pytest.approx(
        population_difference_variance(m), rel=0.02)


def test_population_variance_hand_value():
    m = CorpuscularModel(p=0.3, delta_a=2.0, delta_b=1.0, sigma=0.5, n=1, seed=0)
    # 2*0.25 + (0.3*4 + 0.7*1) - (0.6 - 0.7)^2
    assert population_difference_variance(m) == pytest.approx(2.39, abs=1e-12)


def test_no_signal_variance_is_pure_noise():
    m = CorpuscularModel(p=0.5, delta_a=0.0, delta_b=0.0, sigma=1.3, n=1, seed=0)
    assert population_difference_variance(m) == pytest.approx(2 * 1.3**2, rel=1e-12)


@pytest.mark.parametrize("mu_a,mu_b,sigma", [
    (0.3, 0.7, 1.0),
    (1.0, 1.0, 0.5),
    (0.01, 2.0, 1.0),
    (1e-6, 1.0, 1.0),
])
def test_floor_closed_form_and_grid_oracle(mu_a, mu_b, sigma):
    got = corpuscular_min_variance(mu_a, mu_b, sigma)
    assert got == pytest.approx(2.0 * sigma**2 + 4.0 * mu_a * mu_b, rel=1e-9)
    assert got == pytest.approx(floor_by_grid_search(mu_a, mu_b, sigma), abs=1e-8)


def test_floor_zero_mean_shortcuts():
    assert corpuscular_min_variance(0.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert corpuscular_min_variance(0.7, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert corpuscular_min_variance(0.0, 0.7, 2.0) == pytest.approx(8.0, abs=1e-14)


def test_floor_validation():
    with pytest.raises(ConfigError):
        corpuscular_min_variance(-0.1, 0.5, 1.0)
    with pytest.raises(ConfigError):
        corpuscular_min_variance(0.5, -0.1, 1.0)
    with pytest.raises(ConfigError):
        corpuscular_min_variance(0.5, 0.5, 0.0)


def test_model_validation():
    with pytest.raises(ConfigError):
        CorpuscularModel(p=1.2, delta_a=0.1, delta_b=0.1, sigma=1.0, n=10, seed=0)
    with pytest.raises(ConfigError):
        CorpuscularModel(p=0.5, delta_a=0.1, delta_b=0.1, sigma=0.0, n=10, seed=0)
    with pytest.raises(ConfigError):
        CorpuscularModel(p=0.5, delta_a=0.1, delta_b=0.1, sigma=1.0, n=0, seed=0)


def test_every_family_member_obeys_the_floor():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = CorpuscularModel(
            p=float(rng.uniform(0.01, 0.99)),
            delta_a=float(rng.uniform(0.0, 3.0)),
            delta_b=float(rng.uniform(0.0, 3.0)),
            sigma=float(rng.uniform(0.2, 2.0)),
            n=1, seed=0,
        )
        mu_a, mu_b = m.mean_shifts()
        floor = corpuscular_min_variance(mu_a, mu_b, m.sigma)
        assert population_difference_variance(m) >= floor - 1e-9


@pytest.mark.parametrize("mu_a,mu_b", [(0.3, 0.7), (1.0, 1.0), (0.05, 0.8)])
def test_saturating_member_touches_the_floor(mu_a, mu_b):
    m = saturating_model(mu_a, mu_b, 1.0, n=1, seed=0)
    floor = corpuscular_min_variance(mu_a, mu_b, 1.0)
    assert population_difference_variance(m) == pytest.approx(floor, abs=1e-9)


def test_product_pointers_sit_below_the_floor_whenever_both_means_are_positive():
    for mu in (0.05, 0.15, 0.5, 1.0):
        gap = corpuscular_min_variance(mu, mu, 1.0) - 2.0
        assert gap == pytest.approx(4.0 * mu * mu, rel=1e-8)
        assert gap > 0.0


def test_dict_path_verdicts_and_fields():
    quantum = {"mean_a": 0.3, "mean_b": 0.3, "var_diff": 2.0}
    r = corpuscularity_test(quantum, sigma0=1.0)
    assert r.verdict == "rejects-corpuscular"
    assert r.n_samples == 0 and r.seed is None and r.n_resamples == 0
    assert r.ci_low == r.ci_high == 2.0
    assert r.bound == pytest.approx(2.36, rel=1e-9)

    floor_touching = {"mean_a": 0.3, "mean_b": 0.3, "var_diff": 2.37}
    assert corpuscularity_test(floor_touching, sigma0=1.0).verdict == \
        "consistent-with-corpuscular"

    degenerate = {"mean_a": 0.3, "mean_b": 0.3, "var_diff": math.nan}
    assert corpuscularity_test(degenerate, sigma0=1.0).verdict == "inconclusive"

    with pytest.raises(ConfigError):
        corpuscularity_test({"mean_a": 0.3, "var_diff": 2.0}, sigma0=1.0)
    with pytest.raises(ConfigError):
        corpuscularity_test({"mean_a": 0.3, "mean_b": -0.1, "var_diff": 2.0},
                            sigma0=1.0)


def test_array_path_validation():
    good = np.zeros(MIN_TEST_SAMPLES)
    with pytest.raises(ConfigError):
        corpuscularity_test((good[:50], good[:50]), sigma0=1.0)
    with pytest.raises(ConfigError):
        corpuscularity_test((good, good[:-1]), sigma0=1.0)
    with pytest.raises(ConfigError):
        corpuscularity_test((good.reshape(10, -1), good.reshape(10, -1)), sigma0=1.0)
    with pytest.raises(ConfigError):
        corpuscularity_test((good, good), sigma0=-1.0)
    with pytest.raises(ConfigError):
        corpuscularity_test((good, good), sigma0=1.0, alpha=0.0)
    with pytest.raises(ConfigError):
        corpuscularity_test((good, good), sigma0=1.0, alpha=0.6)


def test_zero_spread_readout_is_inconclusive():
    a = np.full(200, 0.5)
    b = np.zeros(200)
    r = corpuscularity_test((a, b), sigma0=1.0, n_resamples=50)
    assert r.verdict == "inconclusive"
    assert r.var_diff == 0.0


def test_interval_brackets_the_point_estimate():
    m = saturating_model(0.3, 0.3, 1.0, n=5000, seed=21)
    r = corpuscularity_test(simulate_corpuscular(m), sigma0=1.0, seed=8,
                            n_resamples=500)
    assert r.ci_low <= r.var_diff <= r.ci_high
    assert r.n_samples == 5000 and r.seed == 8 and r.n_resamples == 500
    d = r.to_dict()
    assert set(d) == {"n_samples", "mean_a", "mean_b", "var_diff", "ci_low",
                      "ci_high", "bound", "alpha", "verdict", "seed",
                      "n_resamples"}


def test_quantum_style_samples_reject():
    rng = np.random.default_rng(11)
    a = rng.normal(0.3, 1.0, 20_000)
    b = rng.normal(0.3, 1.0, 20_000)
    r = corpuscularity_test((a, b), sigma0=1.0, seed=1, n_resamples=2000)
    assert r.verdict == "rejects-corpuscular"
    assert r.ci_high < r.bound


def test_corpuscular_samples_stay_consistent():
    m = CorpuscularModel(p=0.5, delta_a=0.6, delta_b=0.6, sigma=1.0,
                         n=20_000, seed=7)
    r = corpuscularity_test(simulate_corpuscular(m), sigma0=1.0, seed=2,
                            n_resamples=2000)
    assert r.verdict == "consistent-with-corpuscular"
    assert r.ci_low <= r.bound <= r.ci_high


def test_negative_sample_mean_lowers_the_floor_instead_of_erroring():
    rng = np.random.default_rng(13)
    a = rng.normal(0.3, 1.0, 5000)
    b = rng.normal(-0.2, 1.0, 5000)
    r = corpuscularity_test((a, b), sigma0=1.0, seed=3, n_resamples=500)
    assert r.mean_b < 0.0
    assert r.bound == pytest.approx(
        corpuscular_min_variance(max(r.mean_a, 0.0), 0.0, 1.0), rel=1e-12)


def test_null_rate_with_frozen_seeds():
    """Deterministic mini-study: the saturating null keeps its verdict at
    least 95% of the time (measured 195/200 with these seeds)."""
    kept = 0
    for j in range(200):
        m = CorpuscularModel(p=0.5, delta_a=0.6, delta_b=0.6, sigma=1.0,
                             n=2000, seed=1000 + j)
        r = corpuscularity_test(simulate_corpuscular(m), sigma0=1.0,
                                seed=5000 + j, n_resamples=600, alpha=0.05)
        kept += r.verdict == "consistent-with-corpuscular"
    assert kept >= 190
