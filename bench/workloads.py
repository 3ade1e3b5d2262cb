"""Workload inputs, invocation plans and output checks for bench/run.py.

A workload iteration is a fixed list of command-line invocations (`Step`s).
Every step names the end-to-end metric its timing feeds and a check that
reads the files the invocation wrote.  README.md in this directory explains
why each workload exists and which layer metrics should move which timing.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("trace-split", "trace-cn")

# Flat scenario files handed to the trace subcommands through --config.  Every
# field the trace path reads is spelled out, so a later change of the package
# defaults cannot silently change a workload.
_SPLIT = {
    # The SMALL_SCENARIO geometry of the test suite on the production FFT size
    # (n=4096, dx=0.125) with split-step, 35 time units at dt=0.01: every step
    # costs what a production step costs, and an invocation takes about 1 s.
    "x_min": -256.0, "x_max": 256.0, "n_points": 4096,
    "barrier_left": -2.0, "barrier_right": 2.0, "barrier_height": 1.0,
    "packet_center": -20.0, "packet_sigma": 4.0, "packet_energy": 0.5,
    "dt": 0.01, "n_steps": 3_500, "n_record": 10,
    "scheme": "spectral-split-step", "transmit_cut_sigmas": 2.0,
    "pointer_sigma": 1.0, "pointer_delta": 1.0,
}
_CN = dict(
    # The same geometry on the test suite's n=1024 grid under Crank-Nicolson,
    # 35 time units at dt=0.02: sparse-LU steps on a 4x smaller working set.
    _SPLIT, n_points=1024, dt=0.02, n_steps=1_750, scheme="implicit-fd",
)
# The warm-up scenario: a packet well above the barrier that clears the cut
# within 400 coarse steps runs every stage of the trace subcommands at almost
# no tdse cost.  The packet ends 6 widths beyond the cut, so the sharp
# post-selection edge sprays too little weight toward the domain edges to trip
# the edge guard.
_TINY = dict(_CN, packet_energy=4.5, dt=0.05, n_steps=400)
SCENARIOS = {
    "split": _SPLIT,
    "cn": _CN,
    "tiny-split": dict(_TINY, scheme="spectral-split-step"),
}

# Outputs of the unmodified package (numpy 2.4.6, scipy 1.17.1).  REL_TOL
# admits the roundoff of reordered floating-point arithmetic but not a change
# of scheme, time step or physics: going from dt=0.01 to dt=0.014 moves the split-step transmit
# probability by 1.6e-4 relative, and halving the Crank-Nicolson dt moves
# center_to_peak by 1.6e-3 relative.
REFERENCE = {
    "split": {"transmit_prob": 0.0024357356890381886,
              "center_to_peak": 0.14538182090244314,
              "dwell_time": 1.5528427423867144,
              "shift_a": 0.06532690785219494,
              "shift_b": 0.0974334351019478},
    "cn": {"transmit_prob": 0.0023647107239550924,
           "center_to_peak": 0.1506331687434945,
           "dwell_time": 1.469531698695628,
           "shift_a": 0.06448612567188373,
           "shift_b": 0.09758716072746197},
    "tiny-split": {"transmit_prob": 0.97898120370186215,
                   "center_to_peak": 0.35323862209221141,
                   "dwell_time": 1.5079777599561004,
                   "shift_a": 0.02517379946695906,
                   "shift_b": 0.09999055573013328},
}
REL_TOL = 1e-6
# Conditional distributions sum to one at every time up to roundoff.
NORM_TOL = 1e-8
# The pointer quadrature ladder stops once two rungs agree to 1e-8; the closed
# forms are exact, so a larger gap means a wrong moment.
POINTER_TOL = 1e-8
# Flux conservation of the transfer-matrix amplitudes; measured at 7e-16.
FLUX_TOL = 1e-12
# Saturated Hartman delay for E = V0/2 with k = kappa = 1 is 2/(k kappa) = 2;
# the Richardson loop in group_delay accepts a 1e-7 relative gap.
HARTMAN_DELAY, HARTMAN_TOL = 2.0, 1e-6

# (sigma, delta) of the pointer subcommands in the light passes: the same
# point every time, so their medians pool identical invocations
POINTER_POINT = (1.0, 2.0)
# corpuscle (n, resamples) of the light passes: a fifth of the default
# samples and a tenth of the default resamples keep a pass near 0.6 s
CORPUSCLE_LIGHT = (2_000, 1_000)
SIGMA0 = 1.0

Check = Callable[[Path], "list[str]"]


@dataclass(frozen=True)
class Step:
    """One cli invocation: its arguments, output directory and check."""

    metric: str
    argv: tuple[str, ...]
    out: str
    check: Check


def _close(errors: list[str], what: str, value: float, ref: float, tol: float) -> None:
    if not math.isfinite(value) or abs(value - ref) > tol * abs(ref):
        errors.append(f"{what} = {value!r}, expected {ref!r} within rel {tol:g}")


def _load(path: Path):
    return json.loads(path.read_text())


# ------------------------------------------------------------------ trace


def _check_fig2(scenario: str) -> Check:
    cfg, ref = SCENARIOS[scenario], REFERENCE[scenario]

    def check(out: Path) -> list[str]:
        errors: list[str] = []
        summary = _load(out / "summary.json")
        _close(errors, "transmit_prob", summary["transmit_prob"], ref["transmit_prob"], REL_TOL)
        _close(errors, "center_to_peak", summary["center_to_peak"], ref["center_to_peak"],
               REL_TOL)
        table = np.loadtxt(out / "conditional.csv", delimiter=",", skiprows=1, ndmin=2)
        n, n_record = cfg["n_points"], cfg["n_record"]
        if table.shape != (n * n_record, 4):
            return errors + [f"conditional.csv has shape {table.shape}"]
        dx = (cfg["x_max"] - cfg["x_min"]) / n
        norms = table[:, 2].reshape(n_record, n).sum(axis=1) * dx
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= NORM_TOL:
            errors.append(f"conditional norm off by {drift:.3e} (limit {NORM_TOL:g})")
        return errors

    return check


def _check_dwell(scenario: str) -> Check:
    ref = REFERENCE[scenario]

    def check(out: Path) -> list[str]:
        errors: list[str] = []
        dwell = _load(out / "dwell.json")
        _close(errors, "transmit_prob", dwell["transmit_prob"], ref["transmit_prob"], REL_TOL)
        _close(errors, "dwell_time", dwell["dwell_time"], ref["dwell_time"], REL_TOL)
        return errors

    return check


def _check_two_probe(scenario: str) -> Check:
    cfg, ref = SCENARIOS[scenario], REFERENCE[scenario]

    def check(out: Path) -> list[str]:
        errors: list[str] = []
        run = _load(out / "twoprobe.json")
        _close(errors, "transmit_prob", run["transmit_prob"], ref["transmit_prob"], REL_TOL)
        _close(errors, "shift_a", run["shift_a"], ref["shift_a"], REL_TOL)
        _close(errors, "shift_b", run["shift_b"], ref["shift_b"], REL_TOL)
        # first-order probes leave a product of Gaussians: Var(a - b) = 2 sigma^2
        _close(errors, "var_diff", run["moments"]["var_diff"],
               2.0 * cfg["pointer_sigma"] ** 2, POINTER_TOL)
        return errors

    return check


def trace_steps(scenario: str, config_file: Path) -> list[Step]:
    argv = ("--config", str(config_file))
    return [
        Step("fig2_s", ("fig2", *argv), f"fig2-{scenario}", _check_fig2(scenario)),
        Step("dwell_s", ("dwell", *argv), f"dwell-{scenario}", _check_dwell(scenario)),
        Step("two_probe_s", ("two-probe", *argv), f"two-probe-{scenario}",
             _check_two_probe(scenario)),
    ]


# ---------------------------------------------------------------- pointer


def _check_moments(expected: float) -> Check:
    def check(out: Path) -> list[str]:
        errors: list[str] = []
        _close(errors, "var_diff", _load(out / "moments.json")["var_diff"], expected,
               POINTER_TOL)
        return errors

    return check


def pointer_steps(points) -> list[Step]:
    steps = []
    for sigma, delta in points:
        flags = ("--sigma", repr(sigma), "--delta", repr(delta))
        tag = f"s{sigma}-d{delta}"
        c_sq = math.exp(-delta**2 / (4.0 * sigma**2))  # squared pointer overlap
        steps += [
            Step("variance_s", ("variance", *flags), f"variance-{tag}",
                 _check_moments(2.0 * sigma**2 + delta**2)),
            Step("erased_s", ("erased", *flags), f"erased-{tag}",
                 _check_moments(2.0 * sigma**2 + delta**2 / (1.0 + c_sq))),
            # certain splits --delta into two shifts of delta/2 each
            Step("certain_s", ("certain", *flags), f"certain-{tag}",
                 _check_moments(2.0 * sigma**2)),
        ]
    return steps


# ------------------------------------------------------------- scattering


def _check_hartman(out: Path) -> list[str]:
    table = np.loadtxt(out / "delays.csv", delimiter=",", skiprows=1, ndmin=2)
    rows = table[table[:, 0] == 80.0]
    if len(rows) != 1:
        return ["delays.csv lacks the d=80 row"]
    errors: list[str] = []
    _close(errors, "delay at d=80", float(rows[0, 1]), HARTMAN_DELAY, HARTMAN_TOL)
    return errors


def _check_scatter(n_e: int) -> Check:
    def check(out: Path) -> list[str]:
        table = np.loadtxt(out / "amplitudes.csv", delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (n_e, 7):
            return [f"amplitudes.csv has shape {table.shape}"]
        gap = float(np.max(np.abs(table[:, 5] + table[:, 6] - 1.0)))
        return [] if gap <= FLUX_TOL else [f"|T+R-1| = {gap:.3e} (limit {FLUX_TOL:g})"]

    return check


def scatter_steps() -> list[Step]:
    n_e = 19
    return [
        Step("hartman_s", ("hartman", "--e", "0.5", "--v0", "1", "--d", "10,20,40,80"),
             "hartman", _check_hartman),
        Step("scatter_s", ("scatter", "--e-min", "0.05", "--e-max", "0.95",
                           "--n-e", str(n_e), "--v0", "1", "--d", "10"),
             "scatter", _check_scatter(n_e)),
    ]


# -------------------------------------------------------------- ensembles


def _read_pairs(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_samples(n: int) -> Check:
    def check(out: Path) -> list[str]:
        table = _read_pairs(out / "samples.csv")
        if table.shape != (n, 3) or not np.all(np.isfinite(table)):
            return [f"samples.csv has shape {table.shape} or non-finite entries"]
        return []

    return check


def _check_report(report: dict, n: int, test_seed: int) -> list[str]:
    """Checks that hold for every seed.  The verdict is not checked: the null
    is falsely rejected about alpha = 5% of the time."""
    errors: list[str] = []
    low, high = report["ci"]
    if not low <= report["var_diff"] <= high:
        errors.append(f"var_diff {report['var_diff']!r} outside its interval {report['ci']}")
    mu_a, mu_b = max(report["mean_a"], 0.0), max(report["mean_b"], 0.0)
    _close(errors, "bound", report["bound"], 2.0 * SIGMA0**2 + 4.0 * mu_a * mu_b, 1e-9)
    if report["n"] != n or report["seed"] != test_seed:
        errors.append(f"report n/seed {report['n']}/{report['seed']}, expected {n}/{test_seed}")
    return errors


def _check_test_input(samples: Path, n: int, test_seed: int) -> Check:
    def check(out: Path) -> list[str]:
        report = _load(out / "report.json")
        errors = _check_report(report, n, test_seed)
        table = _read_pairs(samples)
        a, b = table[:, 1], table[:, 2]
        _close(errors, "mean_a", report["mean_a"], float(np.mean(a)), 1e-12)
        _close(errors, "mean_b", report["mean_b"], float(np.mean(b)), 1e-12)
        _close(errors, "var_diff", report["var_diff"], float(np.var(a - b, ddof=1)), 1e-12)
        return errors

    return check


def _check_test_same_as(n: int, test_seed: int, input_report: Path) -> Check:
    def check(out: Path) -> list[str]:
        text = (out / "report.json").read_text()
        errors = _check_report(json.loads(text), n, test_seed)
        if text != input_report.read_text():
            errors.append("in-memory report differs from the --input report")
        return errors

    return check


def corpuscle_steps(out_root: Path, size: tuple[int, int], seed: int, test_seed: int,
                    sims: int = 1) -> list[Step]:
    """corpuscle-sim (repeated ``sims`` times), corpuscle-test --input on its
    CSV, then the same test on the simulated model, which must give the
    identical report."""
    n, resamples = size
    tag = f"n{n}-r{resamples}-s{seed}"
    model = ("--n", str(n), "--seed", str(seed))
    test = ("--sigma0", repr(SIGMA0), "--test-seed", str(test_seed),
            "--resamples", str(resamples))
    samples = out_root / f"corpuscle-sim-{tag}" / "samples.csv"
    input_report = out_root / f"corpuscle-test-input-{tag}" / "report.json"
    return sims * [
        Step("corpuscle_sim_s", ("corpuscle-sim", *model), f"corpuscle-sim-{tag}",
             _check_samples(n)),
    ] + [
        Step("corpuscle_test_s", ("corpuscle-test", "--input", str(samples), *test),
             f"corpuscle-test-input-{tag}", _check_test_input(samples, n, test_seed)),
        Step("corpuscle_test_s", ("corpuscle-test", *model, *test),
             f"corpuscle-test-sim-{tag}", _check_test_same_as(n, test_seed, input_report)),
    ]


# ------------------------------------------------------------------ plans


@dataclass(frozen=True)
class Plan:
    warmup: list[Step]
    iteration: list[Step]


def write_inputs(workload: str, seed: int, input_dir: Path, out_root: Path) -> Plan:
    """Write the workload's input files and return its warm-up and iteration.

    An iteration runs fig2, dwell and two-probe on the workload's scenario,
    each followed by a third of one light pass of the other subcommands.  The
    seed only sets the corpuscle --seed/--test-seed values; the trace inputs
    are fixed, so every run does the same trace work.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    seeds = rng.randrange(2**31), rng.randrange(2**31)
    input_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, cfg in SCENARIOS.items():
        files[name] = input_dir / f"{name}.json"
        files[name].write_text(json.dumps(cfg, indent=1) + "\n")

    main = "split" if workload == "trace-split" else "cn"
    light = interleave(3 * pointer_steps([POINTER_POINT]), 6 * scatter_steps(),
                       2 * corpuscle_steps(out_root, CORPUSCLE_LIGHT, *seeds, sims=3))
    cuts = [round(len(light) * k / 3) for k in range(4)]
    iteration = []
    for k, step in enumerate(trace_steps(main, files[main])):
        iteration += [step] + light[cuts[k]:cuts[k + 1]]
    # The warm-up skips the 0.1 s pointer quadratures and the bootstrap, whose
    # first timed samples warm them instead; this keeps the three set-ups cheap.
    sim = corpuscle_steps(out_root, CORPUSCLE_LIGHT, *seeds)[:1]
    warmup = trace_steps("tiny-split", files["tiny-split"]) + scatter_steps() + sim
    return Plan(warmup=warmup, iteration=iteration)


def interleave(*groups: list[Step]) -> list[Step]:
    """Merge the groups, each spread evenly over the result in its own order.

    Contention on a shared machine comes and goes within seconds, so a metric
    whose samples sit together in one stretch of the run moves with it.
    """
    keyed = [((i + 0.5) / len(group), g, step)
             for g, group in enumerate(groups) for i, step in enumerate(group)]
    return [step for _, _, step in sorted(keyed, key=lambda item: item[:2])]
