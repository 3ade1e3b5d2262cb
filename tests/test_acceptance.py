"""The release checklist: one test per headline claim, in order.

A verbose run of this file reads as the acceptance record.  Everything
cheap is re-derived from scratch; the two expensive full-scenario runs
come from the session fixtures in conftest, shared with the unit files.
Statistical checks use frozen seeds and were sized so the measured counts
clear the asserted thresholds with room (counts noted inline).
"""

import numpy as np
import pytest

from weaktunnel.cli import main
from weaktunnel.core import (BarrierSpec, Grid, gaussian_packet,
                             spin_eigenstate, spin_ops)
from weaktunnel.corpuscle import (CorpuscularModel, corpuscular_min_variance,
                                  corpuscularity_test,
                                  population_difference_variance,
                                  simulate_corpuscular)
from weaktunnel.pointer import (certain_shift_state, difference_variance,
                                erase_and_postselect, pointer_overlap,
                                which_path_state)
from weaktunnel.scatter import delay_vs_width
from weaktunnel.tdse import PropagatorConfig, propagate
from weaktunnel.weakval import weak_moment, weak_value

ROOT2 = np.sqrt(2.0)


def test_checklist_01_spin_readout_lands_outside_the_spectrum():
    ops = spin_ops(0.5)
    op = (ops.sz + ops.sx) / ROOT2
    pre = spin_eigenstate(ops.sz, 0.5)
    post = spin_eigenstate(ops.sx, 0.5)
    wv = weak_value(op, pre, post)
    assert abs(wv - 1.0 / ROOT2) <= 1e-12
    eigs = np.linalg.eigvalsh(op)
    assert np.allclose(np.sort(eigs), [-0.5, 0.5], atol=1e-12)
    assert wv.real > eigs.max() + 0.2
    m2 = weak_moment(op, 2, pre, post)
    assert abs(m2 - 0.25) <= 1e-13
    print(f"checklist 01: readout {wv.real:.15f} beyond spectrum edge 0.5, "
          f"second moment {m2.real:.15f}")


def test_checklist_02_watched_pair_moments_match_closed_forms_to_1e8():
    for sigma in (0.5, 1.0, 2.0):
        for delta in (0.5, 1.0, 2.0):
            report = which_path_state(delta, sigma).moment_report()
            assert report["mean_a"] == pytest.approx(delta / 2.0, abs=1e-8)
            assert report["mean_b"] == pytest.approx(delta / 2.0, abs=1e-8)
            marginal = sigma**2 + delta**2 / 4.0
            assert report["var_a"] == pytest.approx(marginal, rel=1e-8)
            assert report["var_b"] == pytest.approx(marginal, rel=1e-8)
            assert report["var_diff"] == pytest.approx(
                2.0 * sigma**2 + delta**2, rel=1e-8)
    print("checklist 02: 9 (sigma, delta) combinations, all moments to 1e-8")


def test_checklist_03_erasure_narrows_but_never_reaches_certainty():
    """Var(a-b): certain < erased < watched, with the erased value on its
    closed form.  Margins stay above 1e-6 down to delta = sigma/10."""
    sigma = 1.0
    for ratio in (0.1, 0.5, 1.0, 2.0):
        delta = ratio * sigma
        watched = which_path_state(delta, sigma)
        v_watched = difference_variance(watched)
        v_erased = difference_variance(erase_and_postselect(watched))
        v_certain = difference_variance(
            certain_shift_state(delta / 2.0, delta / 2.0, sigma))
        c_sq = pointer_overlap(delta, sigma) ** 2
        assert v_erased == pytest.approx(
            2.0 * sigma**2 + delta**2 / (1.0 + c_sq), rel=1e-7)
        assert v_erased - v_certain >= 1e-6
        assert v_watched - v_erased >= 1e-6
    print("checklist 03: ordering certain < erased < watched holds at "
          "delta/sigma in {0.1, 0.5, 1, 2}")


def test_checklist_04_erased_normalization_constant_to_1e10():
    for sigma in (0.5, 1.0, 2.0):
        for delta in (0.0, 0.5, 1.0, 2.0, 4.0):
            erased = erase_and_postselect(which_path_state(delta, sigma))
            c_sq = pointer_overlap(delta, sigma) ** 2
            assert abs(erased.branches[0][0]
                       - (2.0 * (1.0 + c_sq)) ** -0.5) <= 1e-10
    flat = erase_and_postselect(which_path_state(0.0, 1.0))
    assert abs(flat.branches[0][0] - 0.5) <= 1e-12
    assert flat.postselect_prob == pytest.approx(1.0, abs=1e-12)
    print("checklist 04: normalization matches [2(1+c^2)]^(-1/2); "
          "zero separation degenerates to 1/2")


def test_checklist_05_transmitted_trace_norms_and_face_dominance(trace_run):
    cfg, pair, occ = trace_run["cfg"], trace_run["pair"], trace_run["occ"]
    grid, re = pair.grid, pair.values.real
    assert len(pair.times) == cfg.n_record
    assert np.all(np.abs(np.sum(re, axis=1) * grid.dx - 1.0) <= 1e-8)
    # Step error of the pin: with the duration 130 kept, the trace P moves
    # 8.72e-6, 4.60e-5 and 2.82e-4 relative at dt = 0.002, 0.004 and 0.008
    # against dt = 0.001.  Read as second order, the two finest steps put
    # dt = 0.001 about 2.9e-6 from the dt -> 0 limit, so rel 1e-6 pins this
    # discretization, not the limit.
    assert trace_run["prob"] == pytest.approx(1.3044421208656991e-08, rel=1e-6)
    # the conditioned particle starts left of the barrier and ends right
    assert np.sum(re[0, grid.x < 0.0]) * grid.dx > 0.9
    assert np.sum(re[-1, grid.x >= 0.0]) * grid.dx > 0.9
    assert np.all(occ.entrance >= 0.0) and np.all(occ.exit >= 0.0)
    # The claim holds at the n_record = 20 recorded times (0.0421 there);
    # on a 1300-record grid the same ratio is 0.0472.
    ratio = occ.center_to_peak()
    assert ratio < 0.05
    print(f"checklist 05: norms within 1e-8 at {cfg.n_record} times, "
          f"interior/faces peak ratio {ratio:.4f} < 0.05 at the "
          f"{cfg.n_record} recorded times")


def test_checklist_06_traversal_delay_saturates_with_thickness():
    table = dict(delay_vs_width(0.5, 1.0, [10.0, 20.0, 40.0, 80.0]))
    taus = [table[w] for w in (10.0, 20.0, 40.0, 80.0)]
    assert all(b >= a - 1e-8 for a, b in zip(taus, taus[1:]))
    saturation = abs(table[80.0] - table[40.0]) / table[40.0]
    assert saturation < 0.01
    assert table[80.0] == pytest.approx(2.0, abs=1e-6)
    print(f"checklist 06: delay {table[40.0]:.10f} -> {table[80.0]:.10f} "
          f"(relative step {saturation:.2e} < 1%)")


def test_checklist_07_propagator_fidelity_and_cross_scheme_agreement(
        default_scheme_finals):
    x0, sigma, k0, t = -40.0, 6.0, 0.5, 60.0
    grid = Grid.from_domain(-128.0, 128.0, 1024)
    psi = gaussian_packet(grid, x0, sigma, k0)
    barrier = BarrierSpec.rectangular(-2.0, 2.0, 1.0)
    for scheme in ("spectral-split-step", "implicit-fd"):
        free = PropagatorConfig(dt=0.01, n_steps=6000, scheme=scheme,
                                record_times=(t,))
        (_, final), = propagate(psi, free)
        assert final.expectation_x() == pytest.approx(x0 + k0 * t, rel=1e-4)
        assert final.variance_x() == pytest.approx(
            sigma**2 + t**2 / (4.0 * sigma**2), rel=1e-4)
        walled = PropagatorConfig(dt=0.002, n_steps=10_000, scheme=scheme)
        (_, thru), = propagate(psi, walled, barrier)
        assert abs(thru.norm() - 1.0) <= 1e-8
    finals = default_scheme_finals["finals"]
    dx = default_scheme_finals["cfg"].grid().dx
    l2 = np.sqrt(np.sum(np.abs(finals["spectral-split-step"].amp
                               - finals["implicit-fd"].amp) ** 2) * dx)
    assert l2 <= 1e-5
    print(f"checklist 07: analytic free motion to 1e-4, norm drift within "
          f"1e-8 over 1e4 steps, cross-scheme L2 {l2:.3e} <= 1e-5")


def test_checklist_08_single_detector_floor_is_tight_and_below_no_model():
    symmetric = CorpuscularModel(p=0.5, delta_a=0.6, delta_b=0.6, sigma=1.0,
                                 n=1, seed=0)
    mu_a, mu_b = symmetric.mean_shifts()
    assert population_difference_variance(symmetric) == pytest.approx(
        corpuscular_min_variance(mu_a, mu_b, 1.0), abs=1e-9)
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        m = CorpuscularModel(p=float(rng.uniform(0.01, 0.99)),
                             delta_a=float(rng.uniform(0.0, 3.0)),
                             delta_b=float(rng.uniform(0.0, 3.0)),
                             sigma=float(rng.uniform(0.2, 2.0)),
                             n=1, seed=0)
        ma, mb = m.mean_shifts()
        floor = corpuscular_min_variance(ma, mb, m.sigma)
        assert population_difference_variance(m) >= floor - 1e-9
    # quantum pointers can sit at 2 sigma^2; the family cannot close the gap
    for mu in (0.01, 0.05, 0.15, 0.5, 1.0):
        gap = corpuscular_min_variance(mu, mu, 1.0) - 2.0
        assert gap == pytest.approx(4.0 * mu * mu, rel=1e-6)
        assert gap > 0.0
    print("checklist 08: floor attained by the symmetric member, respected "
          "by 1000 random members, gap 4 mu^2 over quantum")


def test_checklist_09_calibration_at_alpha_005_and_power_at_alpha_010():
    """500 frozen-seed trials each way: the saturating null is wrongly
    rejected in at most 7% of trials at alpha = 0.05 (measured 15/500),
    and the quantum-like ensemble of 10^4 pairs with per-pointer shift
    0.15 = 0.3 sigma is flagged in at least 90% at alpha = 0.10
    (measured 462/500)."""
    n, delta, sigma, resamples, trials = 10_000, 0.3, 1.0, 2000, 500
    false_rejections = 0
    for j in range(trials):
        model = CorpuscularModel(p=0.5, delta_a=delta, delta_b=delta,
                                 sigma=sigma, n=n, seed=20_000 + j)
        r = corpuscularity_test(simulate_corpuscular(model), sigma0=sigma,
                                alpha=0.05, seed=60_000 + j,
                                n_resamples=resamples)
        false_rejections += r.verdict == "rejects-corpuscular"
    assert false_rejections <= 0.07 * trials
    detections = 0
    for j in range(trials):
        rng = np.random.default_rng(40_000 + j)
        a = rng.normal(delta / 2.0, sigma, n)
        b = rng.normal(delta / 2.0, sigma, n)
        r = corpuscularity_test((a, b), sigma0=sigma, alpha=0.10,
                                seed=80_000 + j, n_resamples=resamples)
        detections += r.verdict == "rejects-corpuscular"
    assert detections >= 0.9 * trials
    print(f"checklist 09: false rejections {false_rejections}/{trials} "
          f"(limit 7% at alpha 0.05), detections {detections}/{trials} "
          f"(target 90% at alpha 0.10)")


def test_checklist_10_cli_reruns_are_byte_identical(tmp_path):
    def run_twice(tag, argv_tail):
        snapshots = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{tag}-{attempt}"
            assert main([*argv_tail, "--out", str(out)]) == 0
            snapshots.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1]
        assert "manifest.json" in snapshots[0]

    run_twice("variance", ["variance", "--delta", "1.0", "--sigma", "1.0"])
    run_twice("scatter", ["scatter"])
    run_twice("corpuscle", ["corpuscle-test", "--n", "500",
                            "--resamples", "200"])
    print("checklist 10: three subcommands rerun byte-for-byte, "
          "manifests included")
