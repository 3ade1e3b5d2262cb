"""Command line runner: one subcommand per reproducible artifact.

Every run resolves a flat scenario config (defaults, then an optional JSON
config file, then flags), echoes the resolved config into its output
directory, writes plot-ready CSV/JSON files, and finishes with a manifest of
content checksums.  Runs are deterministic given the seed, so re-running a
scenario must reproduce the manifest byte for byte.

Exit codes: 0 success, 2 invalid configuration, 3 numerical guard tripped,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import (DEFAULT_SCENARIO, TRANSMISSION_TRACE_SCENARIO,
                     ScenarioConfig, load_config)
from .core import BarrierSpec, region_projector
from .corpuscle import (CorpuscularModel, corpuscularity_test,
                        simulate_corpuscular)
from .errors import ConfigError, NumericalGuardError
from .pointer import (WeakProbe, certain_shift_state, erase_and_postselect,
                      two_probe_run, which_path_state)
from .scatter import group_delay, scattering_amplitudes
from .tdse import PropagatorConfig
from .weakval import (barrier_occupation, conditional_distribution,
                      conditional_dwell_time, transmitted_pair)

OUT_ROOT_ENV = "WEAKTUNNEL_OUT"


def _fmt(x) -> str:
    """17 significant digits, so regression diffs catch last-bit changes."""
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_json_text(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise ConfigError(f"cannot serialize {type(value).__name__} to JSON")


class RunWriter:
    """Serialized writer for one output directory, checksummed at the end."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        (self.out_dir / name).write_text(text)
        self.names.append(name)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, _json_text(obj) + "\n")

    def write_csv(self, name: str, header: "list[str]", rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            cells = [str(c) if isinstance(c, (int, np.integer)) else _fmt(c)
                     for c in row]
            lines.append(",".join(cells))
        self.write_text(name, "\n".join(lines) + "\n")

    def finish(self) -> None:
        files = {}
        for name in sorted(self.names):
            digest = hashlib.sha256((self.out_dir / name).read_bytes())
            files[name] = digest.hexdigest()
        manifest = _json_text({"files": files}) + "\n"
        (self.out_dir / "manifest.json").write_text(manifest)


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return Path(root) / args.command


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        lo, hi = (float(p) for p in parts)
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
        except json.JSONDecodeError:
            overrides[key] = raw
    if overrides:
        cfg = ScenarioConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _echo_config(writer: RunWriter, args, scenario: ScenarioConfig | None,
                 options: dict) -> None:
    writer.write_json("config.json", {
        "subcommand": args.command,
        "scenario": scenario.to_dict() if scenario is not None else None,
        "options": options,
    })


# ---------------------------------------------------------------- tunneling


def _cmd_fig2(args) -> int:
    cfg = _resolve_scenario(args, TRANSMISSION_TRACE_SCENARIO)
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, cfg, {})
    barrier = cfg.barrier()
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    dist = conditional_distribution(pair)

    rows = []
    for row, t in enumerate(dist.times):
        for col, x in enumerate(dist.grid.x):
            rows.append((t, x, dist.re[row, col], dist.im[row, col]))
    writer.write_csv("conditional.csv", ["t", "x", "re_value", "im_value"], rows)

    occ = barrier_occupation(dist, barrier)
    writer.write_csv(
        "occupation.csv",
        ["t", "entrance_weight", "center_weight", "exit_weight"],
        zip(occ.times, occ.entrance, occ.center, occ.exit),
    )
    writer.write_json("summary.json", {
        "transmit_prob": pair.postselect_prob,
        "center_to_peak": occ.center_to_peak(),
        "duration": cfg.duration,
        "n_record": cfg.n_record,
    })
    writer.finish()
    return 0


def _cmd_dwell(args) -> int:
    cfg = _resolve_scenario(args, TRANSMISSION_TRACE_SCENARIO)
    barrier = cfg.barrier()
    if args.region is not None:
        left, right = _parse_pair(args.region, "--region")
    else:
        left, right = barrier.x_left, barrier.x_right
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, cfg, {"region": [left, right]})
    # the dwell integral needs the t=0 endpoint in the record grid
    prop = cfg.propagator(record_times=(0.0,) + cfg.record_times())
    pair = transmitted_pair(cfg.packet(), prop, barrier, cfg.transmit_cut())
    region = region_projector(cfg.grid(), left, right)
    dwell = conditional_dwell_time(pair, region)
    writer.write_json("dwell.json", {
        "region_left": left,
        "region_right": right,
        "dwell_time": dwell,
        "duration": cfg.duration,
        "transmit_prob": pair.postselect_prob,
        "n_record": len(pair.times),
    })
    writer.finish()
    return 0


def _cmd_two_probe(args) -> int:
    cfg = _resolve_scenario(args, TRANSMISSION_TRACE_SCENARIO)
    if args.delta is not None:
        cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "pointer_delta": args.delta})
    barrier = cfg.barrier()
    grid = cfg.grid()
    records = cfg.record_times()
    if len(records) < 8:
        raise ConfigError("two-probe defaults need at least 8 recorded times")

    def pick(flag_value, flag, default):
        return _parse_pair(flag_value, flag) if flag_value is not None else default

    # defaults: probe the incident side while the packet is still approaching
    # and the transmitted side after the traversal, disjoint windows
    window_a = pick(args.window_a, "--window-a", (records[1], records[5]))
    window_b = pick(args.window_b, "--window-b", (records[-5], records[-1]))
    region_a = pick(args.region_a, "--region-a", (grid.x_min, barrier.x_left))
    region_b = pick(args.region_b, "--region-b", (barrier.x_right, grid.x_max))

    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, cfg, {
        "window_a": list(window_a), "window_b": list(window_b),
        "region_a": list(region_a), "region_b": list(region_b),
        "sign_b": args.sign_b,
    })
    pair = transmitted_pair(cfg.packet(), cfg.propagator(), barrier, cfg.transmit_cut())
    probe_a = WeakProbe(region_projector(grid, *region_a), cfg.pointer_delta, window_a)
    probe_b = WeakProbe(region_projector(grid, *region_b), cfg.pointer_delta, window_b,
                        sign=args.sign_b)
    run = two_probe_run(pair, probe_a, probe_b, cfg.pointer_sigma)
    wa, wb = run.window_values
    writer.write_json("twoprobe.json", {
        "shift_a": run.mean_shift_a,
        "shift_b": run.mean_shift_b,
        "net_rotation": run.net_rotation,
        "window_value_a": [wa.real, wa.imag],
        "window_value_b": [wb.real, wb.imag],
        "transmit_prob": pair.postselect_prob,
        "moments": run.moment_report(),
    })
    writer.finish()
    return 0


# ------------------------------------------------------------------ pointer


def _pointer_args(args) -> tuple[ScenarioConfig, float, float]:
    cfg = _resolve_scenario(args, DEFAULT_SCENARIO)
    delta = cfg.pointer_delta if args.delta is None else args.delta
    sigma = cfg.pointer_sigma if args.sigma is None else args.sigma
    return cfg, delta, sigma


def _cmd_variance(args) -> int:
    cfg, delta, sigma = _pointer_args(args)
    state = which_path_state(delta, sigma)
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, cfg, {"delta": delta, "sigma": sigma})
    writer.write_json("moments.json", state.moment_report())
    writer.finish()
    return 0


def _cmd_erased(args) -> int:
    cfg, delta, sigma = _pointer_args(args)
    state = erase_and_postselect(which_path_state(delta, sigma))
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, cfg, {"delta": delta, "sigma": sigma})
    writer.write_json("moments.json", state.moment_report())
    writer.finish()
    return 0


def _cmd_certain(args) -> int:
    cfg, delta, sigma = _pointer_args(args)
    delta_a = delta / 2.0 if args.delta_a is None else args.delta_a
    delta_b = delta / 2.0 if args.delta_b is None else args.delta_b
    state = certain_shift_state(delta_a, delta_b, sigma)
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, cfg, {
        "delta_a": delta_a, "delta_b": delta_b, "sigma": sigma,
    })
    writer.write_json("moments.json", state.moment_report())
    writer.finish()
    return 0


# --------------------------------------------------------------- scattering


def _parse_widths(text: str) -> list[float]:
    try:
        widths = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"--d: {exc}") from exc
    if not widths:
        raise ConfigError("--d needs at least one width")
    return widths


def _cmd_hartman(args) -> int:
    widths = _parse_widths(args.d)
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, None, {"e": args.e, "v0": args.v0, "d": widths})
    rows = []
    for d in widths:
        barrier = BarrierSpec.rectangular(-d / 2.0, d / 2.0, args.v0)
        rows.append((d, group_delay(args.e, barrier)))
    writer.write_csv("delays.csv", ["thickness", "delay"], rows)
    writer.finish()
    return 0


def _cmd_scatter(args) -> int:
    if args.n_e < 1:
        raise ConfigError(f"--n-e must be at least 1, got {args.n_e}")
    if not 0.0 < args.e_min <= args.e_max:
        raise ConfigError("need 0 < --e-min <= --e-max")
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, None, {
        "e_min": args.e_min, "e_max": args.e_max, "n_e": args.n_e,
        "v0": args.v0, "d": args.d,
    })
    barrier = BarrierSpec.rectangular(-args.d / 2.0, args.d / 2.0, args.v0)
    energies = np.linspace(args.e_min, args.e_max, args.n_e)
    rows = []
    for e in energies:
        res = scattering_amplitudes(float(e), barrier)
        rows.append((res.energy, res.t.real, res.t.imag, res.r.real, res.r.imag,
                     res.transmission, res.reflection))
    writer.write_csv(
        "amplitudes.csv",
        ["energy", "re_t", "im_t", "re_r", "im_r", "transmission", "reflection"],
        rows,
    )
    writer.finish()
    return 0


# ---------------------------------------------------------------- ensembles


def _model_from_args(args) -> CorpuscularModel:
    return CorpuscularModel(p=args.p, delta_a=args.delta_a, delta_b=args.delta_b,
                            sigma=args.sigma, n=args.n, seed=args.seed)


def _cmd_corpuscle_sim(args) -> int:
    model = _model_from_args(args)
    a, b = simulate_corpuscular(model)
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, None, {
        "p": model.p, "delta_a": model.delta_a, "delta_b": model.delta_b,
        "sigma": model.sigma, "n": model.n, "seed": model.seed,
    })
    writer.write_csv("samples.csv", ["pair_index", "a", "b"],
                     zip(range(model.n), a, b))
    writer.finish()
    return 0


def _read_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    except OSError:
        raise
    except ValueError as exc:
        raise ConfigError(f"sample file {path} is not pair_index,a,b CSV: {exc}")
    return table[:, 0], table[:, 1]


def _cmd_corpuscle_test(args) -> int:
    if args.input is not None:
        a, b = _read_samples(args.input)
        source = {"input": args.input}
    else:
        model = _model_from_args(args)
        a, b = simulate_corpuscular(model)
        source = {"p": model.p, "delta_a": model.delta_a, "delta_b": model.delta_b,
                  "sigma": model.sigma, "n": model.n, "seed": model.seed}
    stats = corpuscularity_test((a, b), sigma0=args.sigma0, alpha=args.alpha,
                                seed=args.test_seed, n_resamples=args.resamples)
    writer = RunWriter(_out_dir(args))
    _echo_config(writer, args, None, {
        **source, "sigma0": args.sigma0, "alpha": args.alpha,
        "test_seed": args.test_seed, "resamples": args.resamples,
    })
    writer.write_json("report.json", {
        "n": stats.n_samples,
        "mean_a": stats.mean_a,
        "mean_b": stats.mean_b,
        "var_diff": stats.var_diff,
        "ci": [stats.ci_low, stats.ci_high],
        "bound": stats.bound,
        "alpha": stats.alpha,
        "verdict": stats.verdict,
        "seed": stats.seed,
    })
    writer.finish()
    print(stats.verdict)
    return 0


# ------------------------------------------------------------------ parsing


def _add_common(sub: argparse.ArgumentParser, scenario: bool = True) -> None:
    sub.add_argument("--out", help="output directory (default: $%s/<subcommand>)"
                     % OUT_ROOT_ENV)
    if scenario:
        sub.add_argument("--config", help="JSON scenario config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one scenario field (repeatable)")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=float, default=0.5, help="hit probability for detector a")
    sub.add_argument("--delta-a", type=float, default=1.0)
    sub.add_argument("--delta-b", type=float, default=1.0)
    sub.add_argument("--sigma", type=float, default=1.0)
    sub.add_argument("--n", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=1234)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--delta", type=float, help="branch separation")
    p.add_argument("--sigma", type=float, help="pointer width")
    p.set_defaults(func=_cmd_variance)

    p = subs.add_parser("erased", help="erased (recombined, post-selected) pointer moments")
    _add_common(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--sigma", type=float)
    p.set_defaults(func=_cmd_erased)

    p = subs.add_parser("certain", help="certain-shift product pointer moments")
    _add_common(p)
    p.add_argument("--delta", type=float, help="full separation; shifts default to delta/2")
    p.add_argument("--delta-a", type=float)
    p.add_argument("--delta-b", type=float)
    p.add_argument("--sigma", type=float)
    p.set_defaults(func=_cmd_certain)

    p = subs.add_parser("hartman", help="group delay versus barrier thickness")
    _add_common(p, scenario=False)
    p.add_argument("--e", type=float, default=0.5, help="incident energy")
    p.add_argument("--v0", type=float, default=1.0, help="barrier height")
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
    p.add_argument("--delta", type=float, help="probe strength (default 0.1)",
                   default=0.1)
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
    p.add_argument("--sigma0", type=float, default=1.0, help="calibrated noise width")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--test-seed", type=int, default=0, help="bootstrap resampling seed")
    p.add_argument("--resamples", type=int, default=10_000)
    p.set_defaults(func=_cmd_corpuscle_test)

    p = subs.add_parser("scatter", help="stationary amplitudes over an energy sweep")
    _add_common(p, scenario=False)
    p.add_argument("--e-min", type=float, default=0.05)
    p.add_argument("--e-max", type=float, default=0.95)
    p.add_argument("--n-e", type=int, default=19)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--d", type=float, default=10.0)
    p.set_defaults(func=_cmd_scatter)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
