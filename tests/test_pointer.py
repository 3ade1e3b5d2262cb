"""Gaussian pointer algebra and the probe readout layer.

The module computes register moments only in closed form.  They are checked
against a from-scratch 2-D quadrature built here (own Gaussians, own
integrals), so the branch algebra and the oracle cross-check independently.
"""

import numpy as np
import pytest

from weaktunnel.config import ScenarioConfig
from weaktunnel.core import RegionProjector
from weaktunnel.corpuscle import corpuscularity_test
from weaktunnel.errors import ConfigError
from weaktunnel.pointer import (JointPointerState, WeakProbe, certain_shift_state,
                                difference_variance, erase_and_postselect,
                                two_probe_run, which_path_state)
from weaktunnel.tdse import propagate
from weaktunnel.weakval import make_pair

from conftest import SMALL_SCENARIO, record_region_values, region_probability

SIGMAS = (0.5, 1.0, 2.0)
DELTAS = (0.5, 1.0, 2.0)


def register_moments_by_quadrature(state, n=1601):
    """Means and variances of a joint pointer state on an n x n grid.

    The pointer density traces out the particle: branch pair (j, k) adds
    conj(c_j) c_k gram[j][k] times the product of the two branches' real
    Gaussians.  Returns the moment_report keys mean_a, mean_b, var_a, var_b
    and var_diff.
    """
    sigma = state.sigma
    reach = max(max(abs(a), abs(b)) for _, a, b in state.branches)
    half = 10.0 * sigma + reach
    x = np.linspace(-half, half, n)

    def g(c):
        return (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-((x - c) ** 2) / (4.0 * sigma**2))

    psi = [np.outer(g(a), g(b)) for _, a, b in state.branches]
    rho = np.zeros((n, n))
    for (cj, _, _), psi_j, row in zip(state.branches, psi, state.gram):
        for (ck, _, _), psi_k, overlap in zip(state.branches, psi, row):
            rho += (np.conj(cj) * ck * overlap).real * psi_j * psi_k

    z = np.trapezoid(np.trapezoid(rho, x, axis=1), x)

    def average(f):
        return np.trapezoid(np.trapezoid(f * rho, x, axis=1), x) / z

    xa, xb = x[:, None], x[None, :]
    mean_a, mean_b = average(xa), average(xb)
    mean_diff = mean_a - mean_b
    return {
        "mean_a": mean_a,
        "mean_b": mean_b,
        "var_a": average((xa - mean_a) ** 2),
        "var_b": average((xb - mean_b) ** 2),
        "var_diff": average((xa - xb - mean_diff) ** 2),
    }


def _oracle_states(sigma, delta):
    return {
        "which-path": which_path_state(delta, sigma),
        "erased": erase_and_postselect(which_path_state(delta, sigma)),
        "certain": certain_shift_state(delta, -delta / 2.0, sigma),
        # a partial, complex overlap of the two particle states
        "partial-overlap": JointPointerState(
            sigma, ((0.8, delta, 0.0), (0.6j, -delta / 2.0, delta)),
            ((1.0, 0.6 + 0.3j), (0.6 - 0.3j, 1.0))),
    }


def branch_overlap(delta, sigma):
    """<G(0)|G(delta)> read from the norm of G(0) + G(delta), 2 + 2 <G(0)|G(delta)>."""
    state = JointPointerState(sigma, ((1.0, 0.0, 0.0), (1.0, delta, 0.0)),
                              ((1.0, 1.0), (1.0, 1.0)))
    return 0.5 * (state.norm_squared() - 2.0)


def test_overlap_frozen_and_formula():
    assert branch_overlap(1.0, 1.0) == pytest.approx(0.8824969025845953, rel=1e-15)
    for sigma in SIGMAS:
        for delta in (0.0, 0.3, 1.7):
            want = np.exp(-(delta**2) / (8.0 * sigma**2))
            assert branch_overlap(delta, sigma) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("delta", DELTAS)
def test_which_path_moments_exact(sigma, delta):
    state = which_path_state(delta, sigma)
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)
    assert state.mean_a() == pytest.approx(delta / 2.0, abs=1e-12)
    assert state.mean_b() == pytest.approx(delta / 2.0, abs=1e-12)
    assert state.var_a() == pytest.approx(sigma**2 + delta**2 / 4.0, rel=1e-12)
    assert state.var_b() == pytest.approx(sigma**2 + delta**2 / 4.0, rel=1e-12)
    assert difference_variance(state) == pytest.approx(
        2.0 * sigma**2 + delta**2, rel=1e-8)


def test_erased_normalization_constant_and_probability():
    for sigma in SIGMAS:
        for delta in DELTAS:
            erased = erase_and_postselect(which_path_state(delta, sigma))
            c_sq = np.exp(-(delta**2) / (4.0 * sigma**2))
            k = erased.branches[0][0]
            assert k == pytest.approx((2.0 * (1.0 + c_sq)) ** -0.5, abs=1e-10)
            assert erased.postselect_prob == pytest.approx(0.5 * (1.0 + c_sq), abs=1e-12)
            assert erased.norm_squared() == pytest.approx(1.0, abs=1e-10)
    # fully overlapping pointers: erasure is certain and K drops to 1/2
    flat = erase_and_postselect(which_path_state(0.0, 1.0))
    assert flat.branches[0][0] == pytest.approx(0.5, abs=1e-12)
    assert flat.postselect_prob == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0])
def test_erased_variance_closed_form_and_quadrature_oracle(ratio):
    sigma = 1.0
    delta = ratio * sigma
    erased = erase_and_postselect(which_path_state(delta, sigma))
    c_sq = np.exp(-(delta**2) / (4.0 * sigma**2))
    closed = 2.0 * sigma**2 + delta**2 / (1.0 + c_sq)
    got = difference_variance(erased)
    assert got == pytest.approx(closed, rel=1e-8)
    assert register_moments_by_quadrature(erased)["var_diff"] == pytest.approx(
        closed, rel=1e-7)


@pytest.mark.parametrize("kind", ["which-path", "erased", "certain", "partial-overlap"])
@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("delta", DELTAS)
def test_closed_form_moments_match_quadrature_oracle(kind, sigma, delta):
    state = _oracle_states(sigma, delta)[kind]
    oracle = register_moments_by_quadrature(state)
    report = state.moment_report()
    assert difference_variance(state) == pytest.approx(oracle["var_diff"], rel=1e-7)
    for key in ("mean_a", "mean_b", "var_a", "var_b", "var_diff"):
        assert report[key] == pytest.approx(oracle[key], rel=1e-7), key


def test_erased_variance_frozen_value():
    erased = erase_and_postselect(which_path_state(1.0, 1.0))
    assert difference_variance(erased) == pytest.approx(2.5621765008857977, rel=1e-8)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0])
def test_variance_ordering_with_margins(ratio):
    sigma, delta = 1.0, ratio
    which = difference_variance(which_path_state(delta, sigma))
    erased = difference_variance(erase_and_postselect(which_path_state(delta, sigma)))
    certain = difference_variance(certain_shift_state(delta / 2.0, delta / 2.0, sigma))
    assert certain == pytest.approx(2.0 * sigma**2, rel=1e-8)
    assert which - erased >= 1e-6
    assert erased - certain >= 1e-6


def test_certain_shift_exact_moments():
    state = certain_shift_state(0.4, -0.2, 0.7)
    assert state.mean_a() == pytest.approx(0.4, abs=1e-12)
    assert state.mean_b() == pytest.approx(-0.2, abs=1e-12)
    assert state.var_a() == pytest.approx(0.49, rel=1e-12)
    assert state.var_b() == pytest.approx(0.49, rel=1e-12)
    assert difference_variance(state) == pytest.approx(0.98, rel=1e-8)


def test_erasure_rejects_non_which_path_states():
    with pytest.raises(ConfigError):
        erase_and_postselect(certain_shift_state(0.3, 0.3, 1.0))
    already = erase_and_postselect(which_path_state(1.0, 1.0))
    with pytest.raises(ConfigError):
        erase_and_postselect(already)


def test_zero_norm_states_raise():
    """A state with no weight has no moments, and erasing a pair of paths
    with opposite coefficients on equal pointers has no symmetric outcome."""
    with pytest.raises(ConfigError):
        JointPointerState(1.0, ((0.0, 0.3, 0.0),), ((1.0,),)).moment_report()
    c = 1.0 / np.sqrt(2.0)
    opposite = JointPointerState(1.0, ((c, 0.0, 0.0), (-c, 0.0, 0.0)),
                                 ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ConfigError):
        erase_and_postselect(opposite)


def test_state_validation():
    with pytest.raises(ConfigError):
        JointPointerState(sigma=-1.0, branches=((1.0, 0.0, 0.0),), gram=((1.0,),))
    with pytest.raises(ConfigError):
        JointPointerState(sigma=1.0, branches=(), gram=())
    with pytest.raises(ConfigError):
        JointPointerState(sigma=1.0, branches=((1.0, 0.0, 0.0), (1.0, 1.0, 0.0)),
                          gram=((1.0,),))


def test_moment_report_feeds_the_ensemble_test():
    report = which_path_state(0.6, 1.0).moment_report()
    assert set(report) == {"mean_a", "mean_b", "var_a", "var_b", "var_diff",
                           "postselect_prob"}
    # detectors a touch wider than assumed: comfortably above the floor
    result = corpuscularity_test(report, sigma0=0.9)
    assert result.verdict == "consistent-with-corpuscular"
    squeezed = corpuscularity_test(certain_shift_state(0.3, 0.2, 1.0).moment_report(),
                                   sigma0=1.0)
    assert squeezed.verdict == "rejects-corpuscular"


@pytest.mark.parametrize("sigma, delta", [(1.0, 1.0), (2.0, 1.7), (1.3, 2.0),
                                          (0.5, 0.5), (2.0, 2.0), (0.7, 1.7)])
def test_which_path_report_sits_on_the_floor_without_rejecting(sigma, delta):
    """The which-path pair saturates the one-register-per-particle floor, so
    its exact report must not reject, whichever way roundoff falls."""
    report = which_path_state(delta, sigma).moment_report()
    result = corpuscularity_test(report, sigma0=sigma)
    assert result.var_diff == pytest.approx(result.bound, rel=1e-12)
    assert result.verdict == "consistent-with-corpuscular"


def test_probe_validation():
    proj = RegionProjector(SMALL_SCENARIO.grid(), -2.0, 2.0)
    with pytest.raises(ConfigError):
        WeakProbe(proj, 0.1, (2.0, 1.0))
    with pytest.raises(ConfigError):
        WeakProbe(proj, 0.1, (0.0, 1.0), sign=2)
    with pytest.raises(ConfigError):
        WeakProbe(proj, -0.1, (0.0, 1.0))


def _tiny_free_pair():
    """A fast unconditioned pair on a small free run (100 steps)."""
    cfg = ScenarioConfig(
        x_min=-64.0, x_max=64.0, n_points=256,
        barrier_left=-2.0, barrier_right=2.0, barrier_height=0.0,
        packet_center=-10.0, packet_sigma=4.0, packet_energy=0.5,
        dt=0.01, n_steps=100, n_record=4,
    )
    prop = cfg.propagator((0, 25, 50, 75, 100))
    grid = cfg.grid()
    return cfg, make_pair(cfg.packet(), RegionProjector(grid, grid.x_min, grid.x_max), prop)


def test_strong_probe_warns():
    cfg, pair = _tiny_free_pair()
    proj = RegionProjector(cfg.grid(), -20.0, 0.0)
    strong = WeakProbe(proj, 0.8, (0.0, 1.0))
    weak = WeakProbe(proj, 0.01, (0.0, 1.0))
    with pytest.warns(UserWarning, match="not weak"):
        two_probe_run(pair, strong, weak, pointer_sigma=1.0)


def test_probe_window_must_hit_recorded_times():
    cfg, pair = _tiny_free_pair()
    proj = RegionProjector(cfg.grid(), -20.0, 0.0)
    probe = WeakProbe(proj, 0.01, (0.0, 1.0))
    outside = WeakProbe(proj, 0.01, (0.5, 2.0))
    offgrid = WeakProbe(proj, 0.01, (0.1, 0.6))
    with pytest.raises(ConfigError):
        two_probe_run(pair, probe, outside, pointer_sigma=1.0)
    with pytest.raises(ConfigError):
        two_probe_run(pair, probe, offgrid, pointer_sigma=1.0)


def test_unconditioned_probe_shift_matches_density_integral():
    """With post-selection on the whole domain, the probe shift is the probe
    strength times the window-averaged probability in the region."""
    cfg = SMALL_SCENARIO
    barrier = cfg.barrier()
    prop = cfg.propagator((0,) + cfg.record_steps())
    psi = cfg.packet()
    snaps = propagate(psi, prop, barrier)
    grid = cfg.grid()

    pair = make_pair(psi, RegionProjector(grid, grid.x_min, grid.x_max), prop, barrier)
    assert pair.postselect_prob == pytest.approx(1.0, abs=1e-8)

    proj_in = RegionProjector(grid, cfg.barrier_left, cfg.barrier_right)
    proj_out = RegionProjector(grid, cfg.barrier_right, grid.x_max)
    win_a = (7.0, 21.0)
    win_b = (21.0, 35.0)
    delta = 0.05
    run = two_probe_run(pair, WeakProbe(proj_in, delta, win_a),
                        WeakProbe(proj_out, delta, win_b), pointer_sigma=1.0)

    t = np.array(prop.record_times)
    for shift, proj, (t1, t2) in ((run.mean_shift_a, proj_in, win_a),
                                  (run.mean_shift_b, proj_out, win_b)):
        inside = (t >= t1) & (t <= t2)
        occ = np.array([region_probability(proj, snaps[j])
                        for j in np.where(inside)[0]])
        want = delta * np.trapezoid(occ, t[inside]) / (t2 - t1)
        assert shift == pytest.approx(want, rel=1e-6)
    assert run.state.mean_a() == pytest.approx(run.mean_shift_a, abs=1e-12)


def window_average_oracle(pair, region, window):
    """The window's conditional region value: np.trapezoid over the records
    in [t1, t2], divided by the window length."""
    t1, t2 = window
    times = np.array(pair.times)
    inside = (times >= t1) & (times <= t2)
    values = record_region_values(pair, region)[inside]
    return complex(np.trapezoid(values, times[inside]) / (t2 - t1))


def test_window_values_match_trapezoid_oracle(small_pair):
    cfg, pair = small_pair["cfg"], small_pair["pair"]
    grid = cfg.grid()
    records = cfg.propagator().record_times
    probe_a = WeakProbe(RegionProjector(grid, grid.x_min, cfg.barrier_left), 0.02,
                        (records[0], records[4]))
    probe_b = WeakProbe(RegionProjector(grid, cfg.barrier_left, cfg.barrier_right),
                        0.02, (records[3], records[-1]))
    run = two_probe_run(pair, probe_a, probe_b, pointer_sigma=1.0)
    for value, probe in zip(run.window_values, (probe_a, probe_b)):
        want = window_average_oracle(pair, probe.target, probe.window)
        assert abs(value - want) <= 1e-14 * abs(want)


def test_opposite_sign_probes_cancel(small_pair):
    cfg, pair = small_pair["cfg"], small_pair["pair"]
    grid = cfg.grid()
    proj = RegionProjector(grid, cfg.barrier_left, cfg.barrier_right)
    records = cfg.propagator().record_times
    window = (records[2], records[6])
    plus = WeakProbe(proj, 0.02, window, sign=+1)
    minus = WeakProbe(proj, 0.02, window, sign=-1)
    run = two_probe_run(pair, plus, minus, pointer_sigma=1.0)
    assert run.mean_shift_a == -run.mean_shift_b
    assert run.net_rotation == 0.0
    assert run.window_values[0] == run.window_values[1]
    assert run.state.postselect_prob == pytest.approx(small_pair["prob"], rel=1e-12)
