"""Closed-loop benchmark of the weaktunnel command line.

    python3 bench/run.py --workload trace-split --seed 1 --seconds 45 --trace 0

One process, one caller: each subcommand is invoked in-process through
``weaktunnel.cli.main`` and starts after the previous one returned.  Every
invocation's outputs are checked; an invocation fails on a nonzero exit code
or a failed check.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics: the median wall time of one invocation per subcommand,
and the median set-up time, each scaled to a reference machine speed by the
speed ticks of speed.py.  ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics of tracing.py.  The lines
before it give each metric with its unit, sample count and unscaled median,
the environment, and failed_frac.  README.md says why the scaling.

Run it from the root of a source checkout: the package is imported from
``src/``, and scratch outputs go to ``.bench_work/`` there and are removed at
exit.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import weaktunnel.cli; "
                "print(time.perf_counter() - t)")
END_TO_END = ("setup_s", "fig2_s", "dwell_s", "two_probe_s", "variance_s", "erased_s",
              "certain_s", "hartman_s", "scatter_s", "corpuscle_sim_s", "corpuscle_test_s")


def cap_threads() -> int:
    """Keep native thread pools at or below the CPUs this process may use.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def time_import() -> float:
    """Seconds to import weaktunnel.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Invokes plan steps, times them, checks their outputs and manifests.

    ``intervals`` holds the perf_counter start and end of each timed
    invocation, by metric.
    """

    def __init__(self, cli, out_root: Path) -> None:
        self.cli = cli
        self.out_root = out_root
        self.intervals: defaultdict = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.warmup_failed = 0
        self.manifests: dict[str, bytes] = {}

    def invoke(self, step, timed: bool) -> float:
        """Run one step; return its wall time."""
        out = self.out_root / step.out
        shutil.rmtree(out, ignore_errors=True)
        argv = [*step.argv, "--out", str(out)]
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a crash counts as a failed invocation
            traceback.print_exc()
        end = time.perf_counter()
        errors = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                errors += step.check(out)
                manifest = (out / "manifest.json").read_bytes()
            except Exception as exc:  # malformed output fails the invocation
                errors.append(f"unreadable output: {exc!r}")
            else:
                first = self.manifests.setdefault(step.out, manifest)
                if manifest != first:
                    errors.append("manifest differs from this run's first invocation")
        for error in errors:
            print(f"FAIL {' '.join(step.argv)}: {error}", file=sys.stderr)
        if timed:
            self.intervals[step.metric].append((start, end))
            self.attempted += 1
            self.failed += bool(errors)
        else:
            self.warmup_failed += bool(errors)
        return end - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weaktunnel" / "cli.py").is_file():
        print(f"error: no weaktunnel sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from weaktunnel import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # turn a termination request into an exit that still runs the cleanup
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args, work, {
            "workload": args.workload, "seed": args.seed, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no concurrent run still uses it


def run(args, work: Path, env: dict) -> int:
    from weaktunnel import cli

    runner = Runner(cli, work / "out")
    if args.trace:
        metrics, units = run_traced(args, runner, work, env)
    else:
        metrics, units = run_timed(args, runner, work, env)
    print(f"failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted}); warm-up failures {runner.warmup_failed}")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.warmup_failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def set_up(args, runner: Runner, work: Path, ticks=None) -> tuple:
    """Import in a fresh interpreter, write the inputs, run the warm-up steps.

    Repeated SETUP_REPEATS times.  Returns the plan and, with ticks, each
    set-up's time scaled by the ticks around it and unscaled.
    """
    import workloads

    scaled, own = [], []
    for _ in range(SETUP_REPEATS):
        # No tick runs beside the child: on two vCPUs that share a core, a
        # tick would slow the import it runs next to.  The ticks just before
        # and after it scale it.
        begin = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            import_s = time_import()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        start = time.perf_counter()
        plan = workloads.write_inputs(args.workload, args.seed, work / "inputs", work / "out")
        for step in plan.warmup:
            runner.invoke(step, timed=False)
        end = time.perf_counter()
        if ticks is not None:
            own.append(import_s + ticks.own_time(start, end))
            scaled.append(own[-1] * ticks.scale(begin, end))
    return plan, scaled, own


def run_timed(args, runner: Runner, work: Path, env: dict) -> tuple[dict, dict]:
    """End-to-end metrics, scaled to the reference speed."""
    import speed

    with speed.SpeedTicks() as ticks:
        plan, setups, setup_own = set_up(args, runner, work, ticks)
        # Whole iterations until the time is up, then the rest of the last one
        # only as far as the time allows: every metric has samples, and the
        # run ends at most one invocation late.
        done = 0
        start = time.perf_counter()
        while done < len(plan.iteration) or time.perf_counter() - start < args.seconds:
            runner.invoke(plan.iteration[done % len(plan.iteration)], timed=True)
            done += 1

    metrics = {"setup_s": statistics.median(setups)}
    samples, own = {}, {}
    for name in END_TO_END[1:]:
        spans = runner.intervals[name]
        own[name] = [ticks.own_time(*span) for span in spans]
        samples[name] = [t * ticks.scale(*span) for t, span in zip(own[name], spans)]
        metrics[name] = statistics.median(samples[name])

    env.update(tick_ref_us=1e6 * speed.REF_S,
               tick_median_us=round(1e6 * statistics.median(ticks.timed), 2))
    print("env " + json.dumps(env))
    print(f"setup_s samples {[round(s, 4) for s in setups]}; unscaled "
          f"{[round(s, 4) for s in setup_own]}")
    for name, value in metrics.items():
        line = f"{name} {value:.6g} s"
        if name in samples:
            line += (f" median of n={len(samples[name])}; unscaled median "
                     f"{statistics.median(own[name]):.6g} s")
            if len(samples[name]) >= 100:
                line += f"; p90 {statistics.quantiles(samples[name], n=10)[-1]:.6g} s"
        print(line)
    return metrics, dict.fromkeys(metrics, "s")


def run_traced(args, runner: Runner, work: Path, env: dict) -> tuple[dict, dict]:
    """Per-layer metrics, unscaled."""
    import tracing

    plan, _, _ = set_up(args, runner, work)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    n_traced = 0
    start = time.perf_counter()
    while n_traced == 0 or time.perf_counter() - start < args.seconds:
        # each step runs untraced, then traced: adjacent runs see the same
        # contention, so their ratio isolates the tracing cost
        for step in plan.iteration:
            plain_s += runner.invoke(step, timed=True)
            tracer.install()
            try:
                traced_s += runner.invoke(step, timed=True)
            finally:
                tracer.restore()
        n_traced += 1
    metrics = tracer.layer_metrics(n_traced)
    metrics["trace_overhead_frac"] = traced_s / plain_s
    units = dict(tracing.PER_LAYER, trace_overhead_frac="ratio")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
