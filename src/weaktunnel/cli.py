"""Command line runner: one subcommand per reproducible artifact.

Every run resolves a flat scenario config (defaults, then an optional JSON
config file, then flags), echoes the resolved config into its output
directory, writes plot-ready CSV/JSON files, and finishes with a manifest of
content checksums.  Runs are deterministic given the seed, so re-running a
scenario must reproduce the manifest byte for byte.  The manifest digests
each file's bytes as they were written.  ``main`` may be called repeatedly in
one process: it builds one parser, on its first call, and reuses it.

A subcommand only computes: it checks its inputs, runs its legs and returns
the text of each file.  ``main`` alone writes, and only after the subcommand
has returned, so a run that exits 2 or 3 creates no output directory and
leaves an existing one as it was.

JSON goes through ``json.dumps`` and every CSV cell through ``str``, so each
float is written as Python's shortest round-trip decimal: it reads back to
the same double, and any last-bit change of a result changes its text.

Exit codes: 0 success, 2 invalid configuration or input (an unreadable file
or a non-finite number included), 3 numerical guard tripped, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import (DEFAULT_SCENARIO, TRANSMISSION_TRACE_SCENARIO,
                     ScenarioConfig, load_config)
from .core import BarrierSpec, RegionProjector
from .corpuscle import (CorpuscularModel, corpuscularity_test,
                        simulate_corpuscular)
from .errors import ConfigError, NumericalGuardError
from .pointer import (JointPointerState, WeakProbe, certain_shift_state,
                      erase_and_postselect, two_probe_run, which_path_state)
from .scatter import delay_vs_width, scattering_amplitudes
from .weakval import (barrier_occupation, transmitted_dwell_time, transmitted_pair,
                      window_nodes)

OUT_ROOT_ENV = "WEAKTUNNEL_OUT"


class RunWriter:
    """Serialized writer for one output directory, checksummed as it writes.

    Each file, the manifest included, goes to a temporary sibling first;
    finish then renames the data files into place, then config.json, then
    the manifest, so a rerun that fails to write keeps the earlier
    config.json and manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def _partial(self, name: str) -> Path:
        return self.out_dir / f".{name}.partial"

    def write_text(self, name: str, text: str) -> None:
        data = text.encode()
        # recorded first, so discard also finds a file whose write failed
        self.digests[name] = hashlib.sha256(data).hexdigest()
        self._partial(name).write_bytes(data)

    def finish(self) -> None:
        manifest = json.dumps({"files": dict(sorted(self.digests.items()))}, indent=2)
        self._partial("manifest.json").write_text(manifest + "\n")
        for name in [*sorted(self.digests, key="config.json".__eq__), "manifest.json"]:
            os.replace(self._partial(name), self.out_dir / name)

    def discard(self) -> None:
        """Remove every file this run wrote that finish did not rename into place."""
        for name in [*self.digests, "manifest.json"]:
            with contextlib.suppress(OSError):
                self._partial(name).unlink()


# what a subcommand returns: its resolved scenario (None if it takes none),
# the options echoed next to it in config.json, and each file's text by name
Run = tuple[ScenarioConfig | None, dict, dict[str, str]]


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(header: "list[str]", rows) -> str:
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return Path(root) / args.command


def finite(text: str) -> float:
    """A finite float, the type of every float flag: argparse exits 2 on the
    ValueError that a malformed or non-finite number raises."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        lo, hi = (finite(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    return lo, hi


def _resolve_scenario(args, base: ScenarioConfig) -> ScenarioConfig:
    """defaults <- config file <- repeated --set key=value overrides."""
    cfg = load_config(args.config) if args.config else base
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:  # not JSON, or an int too long to convert
            overrides[key] = raw
    if overrides:
        cfg = ScenarioConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


# ---------------------------------------------------------------- tunneling


def _cmd_fig2(args) -> Run:
    cfg = _resolve_scenario(args, TRANSMISSION_TRACE_SCENARIO)
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())

    # each time and each x is spelled once and reused on every row it labels
    x_text = [str(x) for x in pair.grid.x.tolist()]
    lines = ["t,x,re_value,im_value"]
    for t, re_row, im_row in zip(pair.times, pair.values.real.tolist(),
                                 pair.values.imag.tolist()):
        lines += map(",".join, zip(repeat(str(t)), x_text, map(str, re_row),
                                   map(str, im_row)))

    occ = barrier_occupation(pair, barrier)
    return cfg, {}, {
        "conditional.csv": "\n".join(lines) + "\n",
        "occupation.csv": _csv(["t", "entrance_weight", "center_weight", "exit_weight"],
                               zip(occ.times, occ.entrance, occ.center, occ.exit)),
        "summary.json": _json({
            "transmit_prob": pair.postselect_prob,
            "center_to_peak": occ.center_to_peak(),
            "duration": cfg.duration,
            "n_record": cfg.n_record,
        }),
    }


def _cmd_dwell(args) -> Run:
    cfg = _resolve_scenario(args, TRANSMISSION_TRACE_SCENARIO)
    barrier = cfg.barrier()
    if args.region is not None:
        left, right = _parse_pair(args.region, "--region")
    else:
        left, right = barrier.x_left, barrier.x_right
    region = RegionProjector(cfg.grid(), left, right)
    dwell = transmitted_dwell_time(cfg.packet(), cfg.propagator(), barrier,
                                   cfg.transmit_cut(), region)
    return cfg, {"region": [left, right]}, {"dwell.json": _json({
        "region_left": left,
        "region_right": right,
        "dwell_time": dwell.time,
        "duration": cfg.duration,
        "transmit_prob": dwell.postselect_prob,
        "n_record": len(dwell.times),
    })}


def _cmd_two_probe(args) -> Run:
    cfg = _resolve_scenario(args, TRANSMISSION_TRACE_SCENARIO)
    cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "pointer_delta": args.delta})
    barrier = cfg.barrier()
    grid = cfg.grid()
    prop = cfg.propagator()
    records = prop.record_times
    if None in (args.window_a, args.window_b) and len(records) < 10:
        raise ConfigError("two-probe default windows need at least 10 recorded times")

    def pick(flag_value, flag, default):
        return _parse_pair(flag_value, flag) if flag_value is not None else default

    # defaults: probe the incident side while the packet is still approaching
    # (records 1 to 5) and the transmitted side after the traversal (records
    # -5 to -1); from 10 records on, the two share at most an endpoint
    window_a = pick(args.window_a, "--window-a", records[1:6:4])
    window_b = pick(args.window_b, "--window-b", records[-5::4])
    region_a = pick(args.region_a, "--region-a", (grid.x_min, barrier.x_left))
    region_b = pick(args.region_b, "--region-b", (barrier.x_right, grid.x_max))
    probe_a = WeakProbe(RegionProjector(grid, *region_a), cfg.pointer_delta, window_a)
    probe_b = WeakProbe(RegionProjector(grid, *region_b), cfg.pointer_delta, window_b,
                        sign=args.sign_b)
    # the windows read no record before the earliest start, so the pair's
    # backward leg stops there
    first = min(window_nodes(records, window)[0][0] for window in (window_a, window_b))
    pair = transmitted_pair(cfg.packet(), cfg.propagator(prop.record_steps[first:]),
                            barrier, cfg.transmit_cut())
    run = two_probe_run(pair, probe_a, probe_b, cfg.pointer_sigma)
    wa, wb = run.window_values
    options = {
        "window_a": list(window_a), "window_b": list(window_b),
        "region_a": list(region_a), "region_b": list(region_b),
        "sign_b": args.sign_b,
    }
    return cfg, options, {"twoprobe.json": _json({
        "shift_a": run.mean_shift_a,
        "shift_b": run.mean_shift_b,
        "net_rotation": run.net_rotation,
        "window_value_a": [wa.real, wa.imag],
        "window_value_b": [wb.real, wb.imag],
        "transmit_prob": pair.postselect_prob,
        "moments": run.state.moment_report(),
    })}


# ------------------------------------------------------------------ pointer


def _pointer_args(args) -> tuple[ScenarioConfig, float, float]:
    cfg = _resolve_scenario(args, DEFAULT_SCENARIO)
    delta = cfg.pointer_delta if args.delta is None else args.delta
    sigma = cfg.pointer_sigma if args.sigma is None else args.sigma
    return cfg, delta, sigma


def _moments(state: JointPointerState) -> dict[str, str]:
    return {"moments.json": _json(state.moment_report())}


def _cmd_variance(args) -> Run:
    cfg, delta, sigma = _pointer_args(args)
    return cfg, {"delta": delta, "sigma": sigma}, _moments(which_path_state(delta, sigma))


def _cmd_erased(args) -> Run:
    cfg, delta, sigma = _pointer_args(args)
    return cfg, {"delta": delta, "sigma": sigma}, _moments(
        erase_and_postselect(which_path_state(delta, sigma)))


def _cmd_certain(args) -> Run:
    cfg, delta, sigma = _pointer_args(args)
    delta_a = delta / 2.0 if args.delta_a is None else args.delta_a
    delta_b = delta / 2.0 if args.delta_b is None else args.delta_b
    return (cfg, {"delta_a": delta_a, "delta_b": delta_b, "sigma": sigma},
            _moments(certain_shift_state(delta_a, delta_b, sigma)))


# --------------------------------------------------------------- scattering


def _parse_widths(text: str) -> list[float]:
    try:
        widths = [finite(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"--d: {exc}") from exc
    if not widths:
        raise ConfigError("--d needs at least one width")
    return widths


def _cmd_hartman(args) -> Run:
    widths = _parse_widths(args.d)
    return None, {"e": args.e, "v0": args.v0, "d": widths}, {
        "delays.csv": _csv(["thickness", "delay"], delay_vs_width(args.e, args.v0, widths))}


def _cmd_scatter(args) -> Run:
    if args.n_e < 1:
        raise ConfigError(f"--n-e must be at least 1, got {args.n_e}")
    if not 0.0 < args.e_min <= args.e_max:
        raise ConfigError("need 0 < --e-min <= --e-max")
    barrier = BarrierSpec.rectangular(-args.d / 2.0, args.d / 2.0, args.v0)
    energies = np.linspace(args.e_min, args.e_max, args.n_e)
    rows = []
    for e in energies:
        res = scattering_amplitudes(float(e), barrier)
        rows.append((res.energy, res.t.real, res.t.imag, res.r.real, res.r.imag,
                     res.transmission, res.reflection))
    options = {"e_min": args.e_min, "e_max": args.e_max, "n_e": args.n_e,
               "v0": args.v0, "d": args.d}
    return None, options, {"amplitudes.csv": _csv(
        ["energy", "re_t", "im_t", "re_r", "im_r", "transmission", "reflection"], rows)}


# ---------------------------------------------------------------- ensembles


def _model_from_args(args) -> tuple[CorpuscularModel, dict]:
    """The model the flags describe, and the flags as config.json echoes them."""
    model = CorpuscularModel(p=args.p, delta_a=args.delta_a, delta_b=args.delta_b,
                             sigma=args.sigma, n=args.n, seed=args.seed)
    return model, {"p": model.p, "delta_a": model.delta_a, "delta_b": model.delta_b,
                   "sigma": model.sigma, "n": model.n, "seed": model.seed}


def _cmd_corpuscle_sim(args) -> Run:
    model, options = _model_from_args(args)
    a, b = simulate_corpuscular(model)
    return None, options, {"samples.csv": _csv(
        ["pair_index", "a", "b"], zip(range(model.n), a.tolist(), b.tolist()))}


def _read_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"sample file {path} is not pair_index,a,b CSV: {exc}")
    return table[:, 0], table[:, 1]


def _cmd_corpuscle_test(args) -> Run:
    if args.input is not None:
        a, b = _read_samples(args.input)
        source = {"input": args.input}
    else:
        model, source = _model_from_args(args)
        a, b = simulate_corpuscular(model)
    stats = corpuscularity_test((a, b), sigma0=args.sigma0, alpha=args.alpha,
                                seed=args.test_seed, n_resamples=args.resamples)
    print(stats.verdict)
    options = {**source, "sigma0": args.sigma0, "alpha": args.alpha,
               "test_seed": args.test_seed, "resamples": args.resamples}
    return None, options, {"report.json": _json({
        "n": stats.n_samples,
        "mean_a": stats.mean_a,
        "mean_b": stats.mean_b,
        "var_diff": stats.var_diff,
        "ci": [stats.ci_low, stats.ci_high],
        "bound": stats.bound,
        "alpha": stats.alpha,
        "verdict": stats.verdict,
        "seed": stats.seed,
    })}


# ------------------------------------------------------------------ parsing


def _add_common(sub: argparse.ArgumentParser, scenario: bool = True) -> None:
    sub.add_argument("--out", help="output directory (default: $%s/<subcommand>)"
                     % OUT_ROOT_ENV)
    if scenario:
        sub.add_argument("--config", help="JSON scenario config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one scenario field (repeatable)")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=finite, default=0.5, help="hit probability for detector a")
    sub.add_argument("--delta-a", type=finite, default=1.0)
    sub.add_argument("--delta-b", type=finite, default=1.0)
    sub.add_argument("--sigma", type=finite, default=1.0)
    sub.add_argument("--n", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=1234)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every main call shares, built on the first call, not at import."""
    parser = argparse.ArgumentParser(
        prog="weaktunnel",
        description="Weak measurements on tunneling packets: reproducible runs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fig2", help="conditional position distribution of the "
                        "transmitted subensemble (launched from far left so the "
                        "right side is pure tunneling)")
    _add_common(p)
    p.set_defaults(func=_cmd_fig2)

    p = subs.add_parser("variance", help="which-path joint pointer moments")
    _add_common(p)
    p.add_argument("--delta", type=finite, help="branch separation")
    p.add_argument("--sigma", type=finite, help="pointer width")
    p.set_defaults(func=_cmd_variance)

    p = subs.add_parser("erased", help="erased (recombined, post-selected) pointer moments")
    _add_common(p)
    p.add_argument("--delta", type=finite)
    p.add_argument("--sigma", type=finite)
    p.set_defaults(func=_cmd_erased)

    p = subs.add_parser("certain", help="certain-shift product pointer moments")
    _add_common(p)
    p.add_argument("--delta", type=finite, help="full separation; shifts default to delta/2")
    p.add_argument("--delta-a", type=finite)
    p.add_argument("--delta-b", type=finite)
    p.add_argument("--sigma", type=finite)
    p.set_defaults(func=_cmd_certain)

    p = subs.add_parser("hartman", help="group delay versus barrier thickness")
    _add_common(p, scenario=False)
    p.add_argument("--e", type=finite, default=0.5, help="incident energy")
    p.add_argument("--v0", type=finite, default=1.0, help="barrier height")
    p.add_argument("--d", default="10,20,40,80", help="comma list of thicknesses")
    p.set_defaults(func=_cmd_hartman)

    p = subs.add_parser("dwell", help="conditional dwell time of the transmitted "
                        "subensemble in a region")
    _add_common(p)
    p.add_argument("--region", metavar="LEFT,RIGHT",
                   help="integration region (default: the barrier)")
    p.set_defaults(func=_cmd_dwell)

    p = subs.add_parser("two-probe", help="impulsive probes of the barrier faces "
                        "during disjoint windows")
    _add_common(p)
    p.add_argument("--delta", type=finite, default=0.1,
                   help="probe strength (default 0.1); replaces the scenario's "
                   "pointer_delta, which a config file cannot set here")
    p.add_argument("--window-a", metavar="T1,T2")
    p.add_argument("--window-b", metavar="T1,T2")
    p.add_argument("--region-a", metavar="X1,X2")
    p.add_argument("--region-b", metavar="X1,X2")
    p.add_argument("--sign-b", type=int, default=1, choices=(-1, 1))
    p.set_defaults(func=_cmd_two_probe)

    p = subs.add_parser("corpuscle-sim", help="sample a one-detector-per-particle model")
    _add_common(p, scenario=False)
    _add_model_flags(p)
    p.set_defaults(func=_cmd_corpuscle_sim)

    p = subs.add_parser("corpuscle-test", help="bootstrap variance test against "
                        "the corpuscular floor")
    _add_common(p, scenario=False)
    _add_model_flags(p)
    p.add_argument("--input", help="pair_index,a,b CSV (default: simulate the model flags)")
    p.add_argument("--sigma0", type=finite, default=1.0, help="calibrated noise width")
    p.add_argument("--alpha", type=finite, default=0.05)
    p.add_argument("--test-seed", type=int, default=0, help="bootstrap resampling seed")
    p.add_argument("--resamples", type=int, default=10_000)
    p.set_defaults(func=_cmd_corpuscle_test)

    p = subs.add_parser("scatter", help="stationary amplitudes over an energy sweep")
    _add_common(p, scenario=False)
    p.add_argument("--e-min", type=finite, default=0.05)
    p.add_argument("--e-max", type=finite, default=0.95)
    p.add_argument("--n-e", type=int, default=19)
    p.add_argument("--v0", type=finite, default=1.0)
    p.add_argument("--d", type=finite, default=10.0)
    p.set_defaults(func=_cmd_scatter)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    writer = None
    try:
        scenario, options, files = args.func(args)
        writer = RunWriter(_out_dir(args))
        writer.write_text("config.json", _json({
            "subcommand": args.command,
            "scenario": scenario.to_dict() if scenario is not None else None,
            "options": options,
        }))
        for name, text in files.items():
            writer.write_text(name, text)
        writer.finish()
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if writer is not None:
            writer.discard()
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
