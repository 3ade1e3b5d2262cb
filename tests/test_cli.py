"""Command-line surface: exit codes, output schemas, overrides, and the
byte-for-byte reproducibility of a seeded run."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import patch_steps
from weaktunnel.cli import RunWriter, main
from weaktunnel.config import TRANSMISSION_TRACE_SCENARIO
from weaktunnel.corpuscle import (CorpuscularModel, corpuscularity_test,
                                  simulate_corpuscular)

# overrides that shrink the tunneling scenario to a few seconds of runtime
FAST = [
    "--set", "x_min=-256", "--set", "x_max=256", "--set", "n_points=1024",
    "--set", "barrier_left=-2", "--set", "barrier_right=2",
    "--set", "packet_center=-20", "--set", "packet_sigma=4",
    "--set", "n_steps=35000", "--set", "n_record=10",
]
SRC = Path(__file__).resolve().parent.parent / "src"


def read_json(d, name):
    return json.loads((d / name).read_text())


def read_csv(d, name):
    lines = (d / name).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def snapshot(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def assert_shortest_floats_csv(d, name, int_columns=()):
    """Every float cell is the shortest decimal that reads back to its double."""
    lines = (d / name).read_text().strip().split("\n")
    for line in lines[1:]:
        for col, cell in enumerate(line.split(",")):
            expected = str(int(cell)) if col in int_columns else str(float(cell))
            assert cell == expected, (name, line)


def assert_shortest_floats_json(d, name):
    """Every float in the file is the shortest decimal that reads back to its double."""
    def check(text):
        assert text == str(float(text)), (name, text)
        return float(text)

    json.loads((d / name).read_text(), parse_float=check)


def test_variance_run_and_manifest(tmp_path):
    out = tmp_path / "v"
    assert main(["variance", "--delta", "1.0", "--sigma", "1.0",
                 "--out", str(out)]) == 0
    m = read_json(out, "moments.json")
    assert m["var_diff"] == pytest.approx(3.0, abs=1e-8)
    assert m["mean_a"] == pytest.approx(0.5, abs=1e-12)
    assert m["mean_b"] == pytest.approx(0.5, abs=1e-12)
    assert m["postselect_prob"] is None

    echo = read_json(out, "config.json")
    assert echo["subcommand"] == "variance"
    assert echo["options"] == {"delta": 1.0, "sigma": 1.0}

    manifest = read_json(out, "manifest.json")
    assert set(manifest["files"]) == {"config.json", "moments.json"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_erased_run_values(tmp_path):
    out = tmp_path / "e"
    assert main(["erased", "--delta", "1.0", "--sigma", "1.0",
                 "--out", str(out)]) == 0
    m = read_json(out, "moments.json")
    assert m["var_diff"] == pytest.approx(2.5621765008857977, rel=1e-8)
    assert m["postselect_prob"] == pytest.approx(0.8894003915357024, rel=1e-12)


def test_certain_run_defaults(tmp_path):
    out = tmp_path / "c"
    assert main(["certain", "--out", str(out)]) == 0
    m = read_json(out, "moments.json")
    assert m["var_diff"] == pytest.approx(2.0, abs=1e-8)
    assert m["mean_a"] == pytest.approx(0.5, abs=1e-12)
    assert m["mean_b"] == pytest.approx(0.5, abs=1e-12)


def test_scatter_sweep_is_unitary(tmp_path):
    out = tmp_path / "s"
    assert main(["scatter", "--out", str(out)]) == 0
    header, rows = read_csv(out, "amplitudes.csv")
    assert header == ["energy", "re_t", "im_t", "re_r", "im_r",
                      "transmission", "reflection"]
    assert rows.shape[0] == 19
    t_sq = rows[:, 1] ** 2 + rows[:, 2] ** 2
    r_sq = rows[:, 3] ** 2 + rows[:, 4] ** 2
    assert np.allclose(t_sq, rows[:, 5], atol=1e-15)
    assert np.allclose(r_sq, rows[:, 6], atol=1e-15)
    assert np.allclose(rows[:, 5] + rows[:, 6], 1.0, atol=1e-10)
    assert_shortest_floats_csv(out, "amplitudes.csv")
    assert_shortest_floats_json(out, "config.json")


def test_hartman_delay_saturates(tmp_path):
    default = [10.0, 20.0, 40.0, 80.0]
    for flags, expected in (([], default), (["--d", "10,20,40,80,400"], [*default, 400.0])):
        out = tmp_path / f"h{len(expected)}"
        assert main(["hartman", *flags, "--out", str(out)]) == 0
        _, rows = read_csv(out, "delays.csv")
        widths, delays = rows[:, 0], rows[:, 1]
        assert list(widths) == expected
        assert np.all(np.diff(delays) >= -1e-8)
        assert abs(delays[-1] - delays[-2]) / delays[-2] < 0.01
        assert delays[-1] == pytest.approx(2.0, abs=1e-12)
        assert_shortest_floats_csv(out, "delays.csv")


def test_corpuscle_sim_test_roundtrip(tmp_path):
    sim = tmp_path / "sim"
    tst = tmp_path / "tst"
    assert main(["corpuscle-sim", "--n", "2000", "--seed", "77",
                 "--out", str(sim)]) == 0
    header, rows = read_csv(sim, "samples.csv")
    assert header == ["pair_index", "a", "b"]
    assert rows.shape == (2000, 3)
    a, b = simulate_corpuscular(CorpuscularModel(p=0.5, delta_a=1.0, delta_b=1.0,
                                                 sigma=1.0, n=2000, seed=77))
    assert np.array_equal(rows[:, 1], a) and np.array_equal(rows[:, 2], b)
    assert_shortest_floats_csv(sim, "samples.csv", int_columns=(0,))
    assert_shortest_floats_json(sim, "config.json")

    assert main(["corpuscle-test", "--input", str(sim / "samples.csv"),
                 "--resamples", "400", "--out", str(tst)]) == 0
    report = read_json(tst, "report.json")
    assert set(report) == {"n", "mean_a", "mean_b", "var_diff", "ci", "bound",
                           "alpha", "verdict", "seed"}
    assert report["n"] == 2000
    # model defaults saturate the floor, so the verdict must not reject
    assert report["verdict"] == "consistent-with-corpuscular"
    assert_shortest_floats_json(tst, "report.json")
    assert_shortest_floats_json(tst, "config.json")

    # the shortest round-trip spelling reads back to the library's numbers exactly
    lib = corpuscularity_test((rows[:, 1], rows[:, 2]), sigma0=1.0,
                              seed=0, n_resamples=400)
    assert report["var_diff"] == lib.var_diff
    assert report["ci"] == [lib.ci_low, lib.ci_high]
    assert report["bound"] == lib.bound


def test_fig2_fast_scenario_and_determinism(tmp_path):
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert main(["fig2", *FAST, "--out", str(out1)]) == 0
    summary = read_json(out1, "summary.json")
    assert summary["n_record"] == 10
    assert summary["duration"] == 35.0
    # Step error of the pin: a Chebyshev expansion of the same grid
    # Hamiltonian puts this dt = 0.001 split-step value 3.15e-7 relative below
    # the dt -> 0 limit, a third of rel 1e-6
    # (tests/test_tdse.py::test_split_step_transmit_probability_against_chebyshev_oracle).
    assert summary["transmit_prob"] == pytest.approx(2.3662422783212265e-3,
                                                     rel=1e-6)
    header, rows = read_csv(out1, "conditional.csv")
    assert header == ["t", "x", "re_value", "im_value"]
    assert rows.shape == (10 * 1024, 4)
    dx = 512.0 / 1024.0
    for t in np.unique(rows[:, 0]):
        total = np.sum(rows[rows[:, 0] == t, 2]) * dx
        assert total == pytest.approx(1.0, abs=1e-8)
    _, occ = read_csv(out1, "occupation.csv")
    assert occ.shape == (10, 4)
    assert_shortest_floats_csv(out1, "conditional.csv")
    # the digests are taken as the files are written; each must match its file
    manifest = read_json(out1, "manifest.json")
    assert list(manifest["files"]) == ["conditional.csv", "config.json",
                                       "occupation.csv", "summary.json"]
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest

    assert main(["fig2", *FAST, "--out", str(out2)]) == 0
    assert snapshot(out1) == snapshot(out2)


def test_dwell_fast_scenario(tmp_path):
    out = tmp_path / "d"
    assert main(["dwell", *FAST, "--out", str(out)]) == 0
    d = read_json(out, "dwell.json")
    assert d["region_left"] == -2.0 and d["region_right"] == 2.0
    assert d["n_record"] == 11
    assert 0.0 < d["dwell_time"] < d["duration"]
    # the record-grid trapezoid of the barrier weight, as the pair of one
    # forward and one backward leg gave it through split-step's FFT pair; the
    # forward-leg value in Fourier-space blocks differs by the legs' roundoff
    # (2.3e-12 relative, with one BLAS thread or two)
    assert d["dwell_time"] == pytest.approx(1.4838114914226563, rel=1e-10)
    assert d["transmit_prob"] == pytest.approx(2.3662422783212265e-3, rel=1e-6)


def test_two_probe_fast_scenario(tmp_path):
    out = tmp_path / "tp"
    assert main(["two-probe", *FAST, "--out", str(out)]) == 0
    tp = read_json(out, "twoprobe.json")
    assert tp["net_rotation"] == tp["shift_a"] + tp["shift_b"]
    # incident-side probe sees the packet waiting in front of the barrier
    assert tp["shift_a"] > 0.05
    assert tp["moments"]["var_diff"] == pytest.approx(2.0, abs=1e-8)
    assert len(tp["window_value_a"]) == 2
    assert tp["transmit_prob"] == pytest.approx(2.3662422783212265e-3, rel=1e-6)
    assert tp["moments"]["postselect_prob"] == tp["transmit_prob"]
    # both keys report the one projected norm |P psi(T)|^2, so they agree
    # bit for bit on the n=4096, dt=0.01 grid too
    coarse = tmp_path / "tp-coarse"
    assert main(["two-probe", *FAST, "--set", "n_points=4096", "--set", "dt=0.01",
                 "--set", "n_steps=3500", "--out", str(coarse)]) == 0
    tp = read_json(coarse, "twoprobe.json")
    assert tp["moments"]["postselect_prob"] == tp["transmit_prob"]



def test_dwell_records_end_at_the_duration_when_n_record_does_not_divide_n_steps(tmp_path):
    tiny = [*FAST, "--set", "packet_energy=4.5", "--set", "dt=0.05"]
    out = tmp_path / "d"
    assert main(["dwell", *tiny, "--set", "n_steps=401", "--set", "n_record=10",
                 "--out", str(out)]) == 0
    assert read_json(out, "dwell.json")["n_record"] == 11
    uneven = replace(TRANSMISSION_TRACE_SCENARIO, dt=0.05, n_steps=401, n_record=10)
    assert uneven.record_steps()[-1] == uneven.n_steps
    assert uneven.propagator().duration == uneven.duration
    # when n_record divides n_steps the records are the evenly spaced j * step
    even = replace(uneven, n_steps=400)
    assert even.record_steps() == tuple(j * 40 for j in range(1, 11))


@pytest.mark.parametrize("argv", [
    ["variance", "--delta", "nan"], ["variance", "--sigma", "nan"],
    ["certain", "--delta-a", "inf"],
    ["hartman", "--e", "nan"], ["hartman", "--v0", "nan"], ["hartman", "--d", "10,nan"],
    ["scatter", "--d", "nan"], ["scatter", "--v0", "nan"],
    ["corpuscle-sim", "--sigma", "nan"], ["corpuscle-sim", "--delta-a", "inf"],
    ["corpuscle-test", "--sigma0", "nan"],
    ["dwell", "--region", "nan,2"],
], ids=" ".join)
def test_non_finite_flags_exit_2(tmp_path, argv):
    out = tmp_path / "x"
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects a bad flag type itself
        code = exc.code
    assert code == 2
    assert not (out / "manifest.json").exists()

def test_two_probe_record_count_guards_only_default_windows(tmp_path):
    cheap = ["--set", "n_points=1024", "--set", "packet_energy=4.5",
             "--set", "dt=0.05", "--set", "n_steps=400"]
    explicit = ["--window-a", "5,10", "--window-b", "15,20"]
    assert main(["two-probe", *cheap, "--set", "n_record=4", *explicit,
                 "--out", str(tmp_path / "explicit")]) == 0
    # eight records would give the overlapping defaults [5, 15] and [10, 20]
    assert main(["two-probe", *cheap, "--set", "n_record=8",
                 "--out", str(tmp_path / "defaults")]) == 2


def test_two_probe_backward_leg_stops_at_the_earliest_window_start(tmp_path, monkeypatch):
    """Records at 2, 4, ..., 20 and default windows [4, 12] and [12, 20]: the
    forward leg takes 400 steps of 0.05 and the backward leg 320 (16 time
    units back to t=4), not 360 (back to the first record)."""
    steps = []
    patch_steps(monkeypatch, lambda x, weight: steps.append(1))
    cheap = ["--set", "n_points=1024", "--set", "packet_energy=4.5",
             "--set", "dt=0.05", "--set", "n_steps=400", "--set", "n_record=10"]
    out = tmp_path / "tp"
    assert main(["two-probe", *cheap, "--out", str(out)]) == 0
    assert read_json(out, "config.json")["options"]["window_a"] == [4.0, 12.0]
    assert len(steps) == 400 + 320


@pytest.mark.parametrize("flags", [
    ["--window-a", "12,4"],        # reversed
    ["--region-a", "3,3"],         # empty region
    ["--region-a", "300,400"],     # beyond the domain: no grid cell
    ["--region-b", "3,3.1"],       # between two cells (dx = 0.39)
    ["--window-a", "5,12"],        # starts between records
    ["--window-b", "12,22"],       # ends past the duration
], ids=" ".join)
def test_two_probe_rejects_bad_probes_before_the_first_step(tmp_path, monkeypatch, flags):
    """Records at 2, 4, ..., 20: each bad probe exits 2 before either leg
    takes a step and before anything is written."""
    steps = []
    patch_steps(monkeypatch, lambda x, weight: steps.append(1))
    cheap = ["--set", "n_points=1024", "--set", "packet_energy=4.5",
             "--set", "dt=0.05", "--set", "n_steps=400", "--set", "n_record=10"]
    out = tmp_path / "tp"
    assert main(["two-probe", *cheap, *flags, "--out", str(out)]) == 2
    assert steps == []
    assert not (out / "manifest.json").exists()


def test_dwell_rejects_a_region_without_a_grid_cell_before_the_first_step(
        tmp_path, monkeypatch):
    steps = []
    patch_steps(monkeypatch, lambda x, weight: steps.append(1))
    cheap = ["--set", "n_points=1024", "--set", "packet_energy=4.5",
             "--set", "dt=0.05", "--set", "n_steps=400", "--set", "n_record=10"]
    out = tmp_path / "d"
    assert main(["dwell", *cheap, "--region", "300,400", "--out", str(out)]) == 2
    assert steps == []
    assert not out.exists()


def test_small_run_determinism_cheap_commands(tmp_path):
    for cmd in (["variance"], ["hartman"], ["corpuscle-test", "--n", "500",
                                            "--resamples", "200"]):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*cmd, "--out", str(a)]) == 0
        assert main([*cmd, "--out", str(b)]) == 0
        assert snapshot(a) == snapshot(b)
        for p in (*a.iterdir(), *b.iterdir()):
            p.unlink()


def test_repeated_main_calls_leak_no_state(tmp_path):
    """main reuses one parser: neither an override nor an argv that argparse
    rejects may reach a later call, so each run writes the same bytes as the
    same argv in a fresh interpreter."""
    runs = [["variance", "--set", "pointer_delta=0.5"], ["variance"], ["hartman"]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert main([*runs[0], "--out", str(here / "0")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--set", "pointer_sigma=2", "--delta", "nan",
              "--out", str(here / "rejected")])
    assert exc.value.code == 2
    assert not (here / "rejected").exists()
    for k, argv in enumerate(runs[1:], start=1):
        assert main([*argv, "--out", str(here / str(k))]) == 0

    env = dict(os.environ, PYTHONPATH=str(SRC))
    for k, argv in enumerate(runs):
        subprocess.run([sys.executable, "-m", "weaktunnel.cli", *argv,
                        "--out", str(fresh / str(k))], env=env, check=True)
        assert snapshot(here / str(k)) == snapshot(fresh / str(k)), argv


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKTUNNEL_OUT", str(tmp_path / "envroot"))
    assert main(["variance"]) == 0
    assert (tmp_path / "envroot" / "variance" / "manifest.json").exists()


def test_default_out_is_runs_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("WEAKTUNNEL_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["variance"]) == 0
    assert (tmp_path / "runs" / "variance" / "moments.json").exists()


def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pointer_delta": 2.0}\n')
    out = tmp_path / "o"

    assert main(["variance", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out, "moments.json")["var_diff"] == pytest.approx(6.0, abs=1e-8)

    assert main(["variance", "--config", str(cfg), "--set", "pointer_delta=0.5",
                 "--out", str(out)]) == 0
    assert read_json(out, "moments.json")["var_diff"] == pytest.approx(2.25, abs=1e-8)

    assert main(["variance", "--config", str(cfg), "--set", "pointer_delta=0.5",
                 "--delta", "1.5", "--out", str(out)]) == 0
    assert read_json(out, "moments.json")["var_diff"] == pytest.approx(4.25, abs=1e-8)


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["variance", "--sigma", "-1", "--out", out]) == 2
    assert main(["fig2", "--set", "bogus_key=1", "--out", out]) == 2
    assert main(["fig2", "--set", "n_record", "--out", out]) == 2
    assert main(["variance", "--config", str(tmp_path / "missing.json"),
                 "--out", out]) == 2
    # an unreadable input is bad input, like an unreadable --config; exit 4
    # is for output failures
    assert main(["corpuscle-test", "--input", str(tmp_path / "nope.csv"),
                 "--out", out]) == 2
    assert main(["corpuscle-test", "--input", str(tmp_path), "--out", out]) == 2
    spoilt = tmp_path / "nan.csv"
    spoilt.write_text("pair_index,a,b\n" + "".join(
        f"{i},{'nan' if i == 7 else i % 3},0.5\n" for i in range(200)))
    assert main(["corpuscle-test", "--input", str(spoilt), "--out", out]) == 2
    assert main(["corpuscle-test", "--n", "200", "--resamples", "0", "--out", out]) == 2
    assert main(["corpuscle-test", "--n", "200", "--resamples", "-5", "--out", out]) == 2
    assert main(["corpuscle-sim", "--seed", "-1", "--out", out]) == 2
    assert main(["corpuscle-test", "--test-seed", "-1", "--out", out]) == 2
    assert main(["fig2", "--set", "packet_sigma=0", "--out", out]) == 2
    assert main(["fig2", "--set", "n_points=abc", "--out", out]) == 2
    assert main(["fig2", "--set", "dt=x", "--out", out]) == 2
    short = ["--set", "n_steps=10", "--set", "n_record=2", "--out", out]
    assert main(["fig2", "--set", "dt=NaN", *short]) == 2
    assert main(["fig2", "--set", "packet_energy=NaN", *short]) == 2
    assert main(["fig2", "--set", "x_max=Infinity", *short]) == 2
    # an int past the float range in a float field, also one past the int
    # digits Python converts from text, here and in a config file
    for digits in (400, 5000):
        huge = "1" + "0" * digits
        assert main(["fig2", "--set", f"x_max={huge}", *short]) == 2
        assert main(["fig2", "--set", f"barrier_height={huge}", *short]) == 2
        config = tmp_path / "huge.json"
        config.write_text(f'{{"packet_center": {huge}}}')
        assert main(["fig2", "--config", str(config), *short]) == 2
    # a width whose square or 1/(8 sigma^2) leaves double range, a pointer
    # shift whose squared branch offset does, and a delay past it, are
    # refused by name before a leg runs or a file is written
    capsys.readouterr()
    for argv, named in ((["variance", "--sigma", "1e-300", "--delta", "1"], "pointer sigma"),
                        (["erased", "--sigma", "1e-200", "--delta", "1"], "pointer sigma"),
                        (["certain", "--sigma", "1e-300"], "pointer sigma"),
                        (["variance", "--sigma", "1e160", "--delta", "1"], "pointer sigma"),
                        (["variance", "--sigma", "1e-155"], "pointer sigma"),
                        (["two-probe", "--set", "pointer_sigma=1e-300"], "pointer_sigma"),
                        (["corpuscle-test", "--sigma0", "1e160"], "sigma0"),
                        (["variance", "--delta", "1e160"], "pointer shift"),
                        (["erased", "--delta", "1e160"], "pointer shift"),
                        (["certain", "--delta-a", "1e200"], "pointer shift"),
                        (["certain", "--delta-b=-1e154"], "pointer shift"),
                        (["hartman", "--e", "1e-300", "--d", "1,2"], "group delay")):
        assert main([*argv, "--out", out]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("item", ["seed=7", "samples=100", "resamples=100", "alpha=0.3"])
def test_scenario_has_no_statistics_fields(tmp_path, item):
    # the corpuscle subcommands take these as flags, so no scenario reads them
    assert main(["variance", "--set", item, "--out", str(tmp_path / "x")]) == 2


# a tall barrier passes nothing, so the transmission post-selection lands
# under the overlap floor within the first few steps
GUARD_TRIP = ["fig2", "--set", "barrier_height=50", "--set", "n_steps=1000",
              "--set", "n_record=2"]


def test_exit_code_3_on_numerical_guard(tmp_path, capsys):
    out = tmp_path / "g"
    assert main([*GUARD_TRIP, "--out", str(out)]) == 3
    assert "post-selection probability" in capsys.readouterr().err
    assert not out.exists()


def test_failed_rerun_leaves_the_earlier_run_intact(tmp_path):
    """A run computes everything before it writes: a rerun that trips a guard
    into the directory of a finished run changes none of its bytes, so its
    manifest still checks."""
    out = tmp_path / "f"
    assert main(["fig2", "--set", "n_steps=1000", "--set", "n_record=2",
                 "--set", "packet_energy=4.5", "--set", "packet_center=-30",
                 "--out", str(out)]) == 0
    before = snapshot(out)
    assert main([*GUARD_TRIP, "--out", str(out)]) == 3
    assert snapshot(out) == before
    manifest = read_json(out, "manifest.json")
    assert set(manifest["files"]) == set(before) - {"manifest.json"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("blocker", ["moments.json", ".manifest.json.partial"])
def test_rerun_that_fails_to_write_keeps_the_earlier_config_and_manifest(tmp_path,
                                                                         blocker):
    """A rerun that exits 4, whether renaming a data file into place or
    writing its manifest, replaces neither config.json nor manifest.json of
    the earlier run, and removes its temporary files."""
    out = tmp_path / "v"
    assert main(["variance", "--out", str(out)]) == 0
    before = snapshot(out)
    (out / blocker).unlink(missing_ok=True)
    (out / blocker).mkdir()
    assert main(["variance", "--set", "pointer_delta=0.5", "--out", str(out)]) == 4
    (out / blocker).rmdir()
    assert snapshot(out) == {k: v for k, v in before.items() if k != blocker}


def test_run_that_fails_to_write_into_a_new_directory_leaves_it_empty(tmp_path,
                                                                       monkeypatch):
    def no_space(self):
        raise OSError("no space left on device")

    monkeypatch.setattr(RunWriter, "finish", no_space)
    out = tmp_path / "v"
    assert main(["variance", "--out", str(out)]) == 4
    assert list(out.iterdir()) == []


def test_exit_code_4_on_unwritable_target(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["variance", "--out", str(blocker / "sub")]) == 4


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
