"""Command-line driver: subcommands, config precedence, manifests, exit codes."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bqlab
from bqlab import cli, simulator
from bqlab.cli import main
from bqlab.simulator import (SimConfig, Stepper, full_norm, windowed_norm,
                             witness_state)
from bqlab.spectral import Domain, write_csv
from bqlab.witness import WitnessConfig, build_witness


def _load(path):
    return json.loads(Path(path).read_text())


def test_witness_writes_json_and_manifest(tmp_path):
    out = str(tmp_path / "w.json")
    code = main(["witness", "--domain", "torus", "--p", "2", "--n", "10",
                 "--s", "-0.5", "--sigma", "1.0", "--out", out])
    assert code == 0
    payload = _load(out)
    assert payload["p"] == 2
    assert payload["output_window"] == 1
    amps = {row[0]: complex(row[1], row[2]) for row in payload["u0"]["values"]}
    assert amps[10.0] == pytest.approx(0.1)
    manifest = _load(out + ".manifest.json")
    assert manifest["command"] == "witness"
    assert manifest["outputs"] == [out]
    assert manifest["params"]["n"] == 10
    assert "wall_time_s" in manifest and "version" in manifest


def test_diophantine_frozen_output(tmp_path):
    out = str(tmp_path / "d.json")
    assert main(["diophantine", "--p", "5", "--out", out]) == 0
    payload = _load(out)
    assert payload == {"p": 5, "profiles": [[2, 0, 1, 2], [3, 1, 0, 1]],
                       "closed_form_match": True}


def test_resonance_report_schema(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["resonance", "--domain", "torus", "--p", "2",
                 "--n-list", "8,16", "--out", out]) == 0
    payload = _load(out)
    assert payload["p"] == 2 and payload["scale_power"] == 1
    assert [e["N"] for e in payload["per_N"]] == [8, 16]
    for entry in payload["per_N"]:
        assert entry["violations"] == []
        assert entry["beta_over_scale_min"] > 0


def test_resonance_report_writes_violations(tmp_path):
    # below N0 = 4 the p = 3 torus audit finds violations; their tallies
    # used to be numpy integers, which json refused with a traceback
    out = str(tmp_path / "r.json")
    assert main(["resonance", "--p", "3", "--n-list", "2,3",
                 "--out", out]) == 0
    per_N = _load(out)["per_N"]
    assert [len(e["violations"]) for e in per_N] == [4, 1]
    assert per_N[0]["violations"][0]["counts"] == [2, 0, 0, 1]
    assert per_N[0]["violations"][0]["multiplicity"] == 3


def test_growth_csv(tmp_path):
    out = str(tmp_path / "g.csv")
    code = main(["growth", "--domain", "torus", "--p", "2", "--s", "-1",
                 "--sigma", "0", "--n-list", "16,32,64", "--out", out])
    assert code == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[0] == "N,data_norm,ap_norm,ratio,slope_running"
    assert len(lines) == 4
    # ratio grows roughly like N at these indices
    r16 = float(lines[1].split(",")[3])
    r64 = float(lines[3].split(",")[3])
    assert 2.0 < r64 / r16 < 8.0


def test_simulate_trajectory(tmp_path):
    out = str(tmp_path / "traj.csv")
    code = main(["simulate", "--p", "2", "--n", "8", "--s", "-1",
                 "--sigma", "0", "--scale", "1e-3", "--t-end", "0.2",
                 "--norm-s=-1,0", "--out", out])
    assert code == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[0] == "t,window_h-1,window_h0,full_h-1,full_h0"
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == pytest.approx(0.2)
    assert first[1] == 0.0              # window starts dark
    assert last[1] > 0.0                # and lights up
    assert last[3] > 0.0


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--p", "2", "--n", "8", "--s", "-1", "--t-end", "0.1"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_simulate_from_witness_file(tmp_path):
    wpath = str(tmp_path / "w.json")
    assert main(["witness", "--domain", "torus", "--p", "2", "--n", "8",
                 "--s", "-1", "--sigma", "0", "--out", wpath]) == 0
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--init", wpath, "--t-end", "0.1",
                 "--out", out]) == 0
    manifest = _load(out + ".manifest.json")
    assert wpath in manifest["inputs"]
    assert len(manifest["inputs"][wpath]) == 64   # sha256 hex


def _simulate(tmp_path, argv):
    """Run simulate with argv: its CSV rows, its manifest, its stdout."""
    out = str(tmp_path / "traj.csv")
    assert main(["simulate"] + argv + ["--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    return rows, _load(out + ".manifest.json")


@pytest.mark.parametrize("N", [8, 16, 32])
def test_simulate_time_error_estimate_bounds_the_error(tmp_path, capsys, N):
    # at the default step the 2 dt shadow's estimate is at least the error
    # of the written columns at t_end against a dt/4 solve, and at most 4x
    # it (2.06 to 2.24x when measured), each relative to the column's
    # largest written value
    rows, manifest = _simulate(tmp_path, ["--n", str(N)])
    est = manifest["time_err_est"]
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, N, -1.0))
    K = 4 * int(round(pair.u0.support.max_frequency()))
    fine = simulator.Stepper(simulator.SimConfig(
        p=2, K=K, dt=simulator.SimConfig(p=2, K=K).dt / 4.0)).integrate(
            simulator.witness_state(pair, K), 1.0)
    exact = [simulator.windowed_norm(fine, (pair.output_window,), -1.0),
             simulator.full_norm(fine, -1.0)]
    true = (np.abs(rows[-1, 1:] - exact) / rows[:, 1:].max(axis=0)).max()
    assert true <= est <= 4.0 * true
    assert manifest["time_err_tol"] == simulator.SIMULATION_TIME_TOL
    if N == 16:
        # the defaults meet the tolerance, from the witness file too
        assert est <= simulator.SIMULATION_TIME_TOL
        assert f"time error estimate {est:.2e} (tolerance 1e-08)" in (
            capsys.readouterr().out)
        wpath = str(tmp_path / "w.json")
        assert main(["witness", "--out", wpath]) == 0
        _rows, init = _simulate(tmp_path, ["--init", wpath])
        assert init["time_err_est"] == est


def test_simulate_time_error_estimate_edges(tmp_path, capsys):
    # at --t-end 1e-4 the default step is capped at t_end/4, so the 2 dt
    # shadow takes two full steps and the estimate is a number above 0;
    # a --dt whose shadow would take under two full steps, or t_end = 0,
    # reports no estimate, never a 0 from one identical step
    _rows, manifest = _simulate(tmp_path, ["--t-end", "1e-4"])
    assert 0.0 < manifest["time_err_est"] <= simulator.SIMULATION_TIME_TOL
    assert " dt=2.5e-05 " in capsys.readouterr().out
    for argv in (["--dt", "0.3"], ["--dt", "0.25", "--t-end", "0.99"],
                 ["--t-end", "0"]):
        rows, manifest = _simulate(tmp_path, argv)
        assert manifest["time_err_est"] is None
        assert "time error estimate n/a " in capsys.readouterr().out
    # two full 2 dt steps of a --dt: an estimate
    _rows, manifest = _simulate(tmp_path, ["--dt", "0.25"])
    assert manifest["time_err_est"] > 0.0


def test_inflate_json(tmp_path):
    out = str(tmp_path / "i.json")
    assert main(["inflate", "--p", "2", "--s", "-0.6", "--n-list", "8,16",
                 "--t-end", "0.3", "--out", out]) == 0
    payload = _load(out)
    assert [r["N"] for r in payload["rows"]] == [8, 16]
    assert all(r["sup_window_norm"] > 0 for r in payload["rows"])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_reproduce_all_into_a_pipe_prints_each_line_once():
    # criterion 8 runs its N = 16, 32 and 64 in a forked child while
    # criterion 7's lines wait in the block-buffered stdout of a pipe; a
    # child that flushed that buffer on exit would print them twice
    code = ("import sys\n"
            "from bqlab import cli, workers\n"
            "workers.usable_cpus = lambda: 2\n"
            "sys.exit(cli.main(['reproduce-all', '--criteria', '7,8']))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bqlab.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(" (")[0] for line in lines if "criterion-" in line] \
        == ["[PASS] criterion-7 simulator-integrity",
            "[PASS] criterion-8 norm-inflation"]
    assert lines[-1] == "2/2 criteria passed"
    assert len(lines) == len(set(lines)) == 9


def test_simulate_norms_blocks_of_rows_as_state_by_state(tmp_path):
    # 101 written rows are normed as a block of 64 and one of 37: the CSV
    # has the bytes of norming each observed state on its own
    argv = ["--p", "2", "--n", "8", "--s", "-1", "--k", "40", "--dt", "0.01",
            "--t-end", "1", "--observe-every", "1", "--norm-s", "-1,0.5"]
    out = tmp_path / "traj.csv"
    assert main(["simulate"] + argv + ["--out", str(out)]) == 0
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, 8, -1.0))
    rows = []
    Stepper(SimConfig(p=2, K=40, dt=0.01)).integrate(
        witness_state(pair, 40), 1.0, observer=lambda st: rows.append(
            [st.t] + [windowed_norm(st, (pair.output_window,), s)
                      for s in (-1.0, 0.5)]
            + [full_norm(st, s) for s in (-1.0, 0.5)]))
    assert len(rows) == 101
    write_csv(str(tmp_path / "ref.csv"),
              out.read_text().split("\n")[0].split(","), rows)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["witness", "--n", "8"],
    ["resonance", "--n-list", "8,16"],
    ["diophantine", "--p", "5"],
    ["growth", "--n-list", "16,32"],
    ["simulate", "--n", "8", "--t-end", "0.1"],
    ["inflate", "--n-list", "8,16", "--t-end", "0.3"],
    ["reproduce-all", "--criteria", "5"],
], ids=lambda argv: argv[0])
def test_output_contract(tmp_path, monkeypatch, argv):
    # without --out (--out-dir) nothing is written; with it, exactly the
    # result and a manifest that lists it
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert os.listdir(tmp_path) == []
    if argv[0] == "reproduce-all":
        # a new directory: criterion 5 writes no table that would create it
        out_dir = str(tmp_path / "report")
        argv = argv + ["--out-dir", out_dir]
        out = os.path.join(out_dir, "criteria_summary.json")
        manifest = os.path.join(out_dir, "manifest.json")
    else:
        out = str(tmp_path / "result")
        argv = argv + ["--out", out]
        manifest = out + ".manifest.json"
    assert main(argv) == 0
    assert sorted(str(f) for f in tmp_path.rglob("*") if f.is_file()) == [
        out, manifest]
    assert _load(manifest)["outputs"] == [out]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\np = 7\n")
    out = str(tmp_path / "d.json")
    assert main(["diophantine", "--config", str(cfg), "--out", out]) == 0
    assert _load(out)["p"] == 7
    assert main(["diophantine", "--config", str(cfg), "--p", "5",
                 "--out", out]) == 0
    assert _load(out)["p"] == 5
    manifest = _load(out + ".manifest.json")
    assert str(cfg) in manifest["inputs"]


def test_config_refuses_unknown_key(tmp_path, capsys):
    # "pp" used to be ignored, so diophantine ran at its default p = 3
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("pp = 7\n")
    out = tmp_path / "d.json"
    assert main(["diophantine", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "unknown config key 'pp'" in captured.err
    # a key that another subcommand declares is kept for that subcommand
    cfg.write_text("p = 5\nn_list = 8,16\ncriteria = 5\n")
    assert main(["diophantine", "--config", str(cfg), "--out", str(out)]) == 0
    assert _load(out)["p"] == 5


def test_config_refuses_a_key_set_twice(tmp_path, capsys):
    # the second line used to win silently; n-list and n_list are one key
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("p = 2\nn-list = 16,32\n# comment\nN_list = 8,16\n")
    out = tmp_path / "r.json"
    assert main(["inflate", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: {cfg}: config key 'n_list' set twice, "
                            "on lines 2 and 4\n")


def test_malformed_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p 7\n")
    assert main(["diophantine", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("where", ["flag", "config"])
def test_bad_value_names_its_input(tmp_path, capsys, where):
    # the cast's own text ("invalid literal for int() with base 10: 'x'")
    # named neither the flag nor the config file and key
    if where == "flag":
        argv, prefix = ["growth", "--n-list", "16,x"], "--n-list: "
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p=abc\n")
        argv, prefix = ["growth", "--config", str(cfg)], f"{cfg}: p: "
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + prefix)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--norm-s", "-1,0"],
    ["simulate", "--s", "-1e0"],
    ["simulate", "--sigma", "-5e-1", "--s", "-1"],
    ["simulate", "--norm", "-1,0"],     # an abbreviation argparse accepts
    ["inflate", "--s", "-6e-1", "--n-list", "8,16", "--t-end", "0.05"],
])
def test_negative_flag_values_read_as_values(tmp_path, capsys, argv):
    # argparse took -1,0, -1e0 and -5e-1 for flags: exit 2 and "expected
    # one argument"; each argv now runs as its --flag=value form
    short = ["--t-end", "0.01"] if argv[0] == "simulate" else []
    joined = [argv[0]] + [f"{a}={b}" for a, b in zip(argv[1::2], argv[2::2])]
    outputs = []
    for args in (argv, joined):
        out = tmp_path / f"{len(outputs)}.out"
        assert main(args + short + ["--out", str(out)]) == 0, args
        outputs.append((capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].err == ""


def test_exit_code_validation_errors():
    assert main(["witness", "--domain", "klein-bottle"]) == 1
    assert main(["witness", "--s", "0", "--sigma", "-1"]) == 1
    assert main(["diophantine", "--p", "4"]) == 1


def test_exit_code_budget():
    assert main(["resonance", "--domain", "line", "--p", "2001",
                 "--n-list", "8"]) == 2


def test_resonance_refuses_scan_beyond_budget(capsys):
    # 10 multisets x 10^9 scanned N: one line and exit 2, before any work
    assert main(["resonance", "--scan-max", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resource budget exceeded: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["simulate", "--n", "2000"],
                                  ["inflate", "--n-list", "100000"]])
def test_simulation_refused_beyond_budget(monkeypatch, capsys, argv):
    # about 4.5e13 and 1e14 row steps x M log2 M: one line and exit 2,
    # before the first step
    def no_step(*args):
        raise AssertionError("a step was taken")
    monkeypatch.setattr(simulator.Stepper, "_step", no_step)
    monkeypatch.setattr(simulator.Stepper, "_step_once", no_step)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resource budget exceeded: ")
    assert "simulation budget" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "1000000000000"],
    ["inflate", "--n-list", "1000000000000"],
    ["simulate", "--k", "100000000"],
    ["simulate", "--n", "100000000"],
    ["inflate", "--n-list", "100000000"],
    ["simulate", "--k", "100000000", "--dt", "1", "--t-end", "1"],
    ["simulate", "--dt", "1e-320"],
    ["simulate", "--dt", "1e-320", "--observe-every", "5"]])
def test_simulation_sized_before_it_allocates(monkeypatch, capsys, tmp_path,
                                              argv):
    # K + 1 modes in the terabytes, a step count that is not finite, or
    # rows x M of several GB: one line and exit 2, before a witness state,
    # an energy or a stepper is built, and no file written
    def unbuilt(*args, **kwargs):
        raise AssertionError("built before it was sized")
    for name in ("Stepper", "witness_state", "linear_energy"):
        for module in (simulator, cli):
            monkeypatch.setattr(module, name, unbuilt)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resource budget exceeded: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_reproduce_single_criterion(tmp_path):
    out_dir = str(tmp_path / "report")
    os.makedirs(out_dir)
    code = main(["reproduce-all", "--criteria", "5", "--out-dir", out_dir])
    assert code == 0
    summary = _load(os.path.join(out_dir, "criteria_summary.json"))
    assert summary[0]["number"] == 5 and summary[0]["passed"]
    manifest = _load(os.path.join(out_dir, "manifest.json"))
    assert manifest["command"] == "reproduce-all"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == bqlab.__version__


def test_growth_refuses_single_n(capsys):
    assert main(["growth", "--n-list", "16"]) == 1
    assert main(["growth", "--n-list", "16,16"]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 2 and all(e.startswith("error: ") for e in err)


@pytest.mark.parametrize("t", ["0", "1e-200"])
def test_growth_refuses_vanishing_ratio(capsys, t):
    # at t = 0, or t so small that the profile underflows, every ratio is 0
    assert main(["growth", "--t", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"N=16, t={float(t)}" in captured.err


@pytest.mark.parametrize("sign", ["3", "0"])
def test_growth_refuses_sign_outside_plus_minus_one(capsys, sign):
    # sign 3 used to print three times the sign-1 ratio, sign 0 to end
    # with an error about the ratio
    assert main(["growth", "--sign", sign, "--n-list", "16,32"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"sign must be -1 or +1, got {sign}" in captured.err


@pytest.mark.parametrize("argv", [
    ["inflate", "--n-list", "16,16", "--t-end", "0.05"],
    ["growth", "--n-list", "16,16,32"],
    ["resonance", "--n-list", "16,16"],
], ids=["inflate", "growth", "resonance"])
def test_repeated_n_refused(tmp_path, capsys, argv):
    # inflate reported N=16 twice, growth wrote a second N=16 row with a
    # running slope, and resonance audited N=16 once without a word
    out = str(tmp_path / "o")
    assert main(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "N list repeats [16]" in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,message", [
    (["witness", "--sigma", "inf"], "finite s and sigma"),
    (["simulate", "--s", "nan"], "finite s and sigma"),
    (["simulate", "--sigma", "nan"], "finite s and sigma"),
    (["growth", "--sigma", "inf", "--n-list", "16,32"], "finite s and sigma"),
    (["growth", "--sigma", "400", "--n-list", "16,32"],
     "data norm 0.0 at N=16 is not finite"),
    (["growth", "--p", "9", "--s", "99", "--sigma", "100",
      "--n-list", "16,32"], "N^(p sigma) factor inf at N=16 is not finite"),
    (["growth", "--p", "9", "--s", "-41", "--sigma", "-40",
      "--n-list", "16,32"], "N^(p sigma) factor 0.0 at N=16 is not finite"),
    (["witness", "--s", "-401", "--sigma", "-400"],
     "amplitude N^-sigma at N=16, sigma=-400 overflows"),
    (["growth", "--s", "-401", "--sigma", "-400", "--n-list", "16,32"],
     "amplitude N^-sigma at N=16, sigma=-400 overflows"),
    (["growth", "--s", "-200", "--sigma", "-199", "--n-list", "16,32"],
     "data norm 0.0 at N=16 is not finite"),
    (["simulate", "--s", "-200", "--sigma", "-199"],
     "data norm 0.0 at N=16 is not finite"),
    (["witness", "--s", "-256", "--sigma", "-255"],
     "u1 samples N^-sigma lambda at N=16, sigma=-255 overflow"),
    (["growth", "--s", "-256", "--sigma", "-255", "--n-list", "16,32"],
     "u1 samples N^-sigma lambda at N=16, sigma=-255 overflow"),
    (["simulate", "--s", "-256", "--sigma", "-255"],
     "u1 samples N^-sigma lambda at N=16, sigma=-255 overflow"),
], ids=["witness-sigma-inf", "simulate-s-nan", "simulate-sigma-nan",
        "growth-sigma-inf", "growth-sigma-400", "growth-factor-overflow",
        "growth-factor-underflow", "witness-amplitude-overflow",
        "growth-amplitude-overflow", "growth-norm-overflow",
        "simulate-norm-overflow", "witness-velocity-overflow",
        "growth-velocity-overflow", "simulate-velocity-overflow"])
def test_bad_witness_exponents_refused(capsys, argv, message):
    # these printed a zero data norm, ended as "simulation blew up", or
    # ended in a ZeroDivisionError or OverflowError traceback or after a
    # numpy RuntimeWarning (an error here: pytest turns warnings into errors)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("p", ["1", "0"])
def test_resonance_refuses_p_below_two(tmp_path, capsys, p):
    # an audit that skips every N would report N0=1, 0 violations
    out = str(tmp_path / "r.json")
    assert main(["resonance", "--p", p, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "p must be an integer >= 2" in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("scan_max", ["0", "-5"])
def test_resonance_refuses_scan_max_below_one(tmp_path, capsys, scan_max):
    # a scan of nothing would report N0 = 1, as if clean from N = 1
    out = str(tmp_path / "r.json")
    assert main(["resonance", "--scan-max", scan_max, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"scan_max >= 1, got {scan_max}" in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("n_list", ["-5,0", "0,16"])
def test_resonance_refuses_n_below_one(tmp_path, capsys, n_list):
    # an N without a witness set would be dropped: "-5,0" would report
    # N0=1, 0 violations and an empty per_N
    out = str(tmp_path / "r.json")
    assert main(["resonance", "--p", "2", f"--n-list={n_list}",
                 "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "need every N >= 1" in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["witness", "--p", "3", "--n", "1"],
    ["simulate", "--p", "3", "--n", "1"],
    ["growth", "--p", "3", "--n-list", "1,16"],
    ["inflate", "--p", "3", "--n-list", "1,16", "--t-end", "0.05"],
    ["resonance", "--p", "3", "--n-list", "1"],
    ["resonance", "--p", "3", "--n-list", "1,16"],
], ids=["witness", "simulate", "growth", "inflate", "resonance-1",
        "resonance-1-16"])
def test_degenerate_torus_n_refused(tmp_path, capsys, argv):
    # odd p on the torus at N = 1 has 2N = N + 1: the witness commands said
    # "duplicate torus components", and resonance dropped the N without a
    # word ("--n-list 1" printed N0=1, 0 violations, and exited 0)
    out = str(tmp_path / "o")
    assert main(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "odd-p torus witness needs N >= 2" in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["simulate", "--init", "missing.json"],
    ["diophantine", "--config", "missing.cfg"],
], ids=["init", "config"])
def test_missing_input_file(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a.startswith("missing") else a
            for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("payload,key", [
    ({"domain": "torus"}, "'u0'"),
    ({"p": 2, "s": -1.0, "output_window": 1, "u0": 5, "u1": {}}, "u0"),
], ids=["missing-key", "ill-typed"])
def test_malformed_init_file(tmp_path, capsys, payload, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["simulate", "--init", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and "Traceback" not in err


def test_reproduce_rejects_unknown_criterion(capsys):
    assert main(["reproduce-all", "--criteria", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "9" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""        # no criterion ran


def test_reproduce_refuses_empty_criteria_list(capsys):
    # an empty list used to run all eight criteria
    assert main(["reproduce-all", "--criteria", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "empty" in captured.err


@pytest.mark.parametrize("command", ["resonance", "inflate"])
def test_empty_n_list_refused(tmp_path, capsys, command):
    out = str(tmp_path / "o.json")
    assert main([command, "--n-list", "", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "empty" in err
    assert not os.path.exists(out)


def test_simulate_init_refuses_other_p(tmp_path, capsys):
    wpath = str(tmp_path / "w3.json")
    assert main(["witness", "--p", "3", "--n", "8", "--out", wpath]) == 0
    capsys.readouterr()
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--init", wpath, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "p=3" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not os.path.exists(out)
    assert main(["simulate", "--init", wpath, "--p", "3", "--t-end", "0.05",
                 "--out", out]) == 0
    assert capsys.readouterr().out.startswith("simulate p=3 ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-end", "inf"],
    ["simulate", "--t-end", "nan"],
    ["simulate", "--dt", "inf"],
    ["simulate", "--dt", "nan"],
    ["inflate", "--t-end", "inf"],
    ["inflate", "--t-end", "nan"],
])
def test_non_finite_times_refused(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["inflate", "--delta", "inf"],
    ["inflate", "--delta", "nan"],
    ["simulate", "--scale", "inf"],
    ["simulate", "--scale", "nan"],
    ["simulate", "--norm-s", "nan"],
    ["simulate", "--norm-s", "inf"],
    ["simulate", "--norm-s=-1,-inf"],
    # (1 + K^2)^s overflows: nan and inf columns, an OverflowError traceback
    ["simulate", "--norm-s", "400", "--out", os.devnull],
    ["simulate", "--norm-s", "1e308", "--out", os.devnull],
    # the scaled data's linear energy overflows: a numpy overflow warning
    # from linear_energy (and at 1e155 from full_norm) came first
    ["simulate", "--scale", "1e152"],
    ["simulate", "--scale", "1e155"],
])
def test_non_finite_data_sizes_refused(capsys, argv):
    assert main(argv) == 1       # warnings are errors in this suite
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "finite" in captured.err and "blew up" not in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "20", "--n", "1", "--t-end", "0.5"],
    ["inflate", "--n-list", "16", "--delta", "1000", "--t-end", "0.5"],
], ids=["simulate", "inflate"])
def test_blowup_ends_with_one_error_line(capsys, argv):
    # these printed numpy RuntimeWarnings (an error here: pytest turns
    # warnings into errors) from the observer and the stepper before the
    # blow-up was reported
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: simulation blew up")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,p", [
    (["growth", "--p", "172", "--n-list", "16,32"], 172),
    (["growth", "--domain", "line", "--p", "171", "--n-list", "16,32"], 171),
    (["growth", "--p", "170", "--n-list", "16,32"], 170),
    (["growth", "--p", "160", "--n-list", "16,32"], 160),
    (["growth", "--domain", "line", "--p", "170", "--n-list", "16,32"], 170),
], ids=["torus-172", "line-171", "torus-170", "torus-160", "line-170"])
def test_growth_refuses_overflowing_prefactor(monkeypatch, capsys, argv, p):
    # p! overflows a double from p = 171 on (an OverflowError traceback),
    # and 170! xi^2 overflowed with a numpy RuntimeWarning (an error here:
    # pytest turns warnings into errors) after seconds of enumeration; at
    # torus p = 160 and line p = 170 the prefactor is finite and its product
    # with the representation sum overflowed (a small lattice rule on the
    # line keeps the run short)
    monkeypatch.setattr("bqlab.flow_derivative.LINE_LATTICE_POINTS", 7)
    monkeypatch.setattr("bqlab.flow_derivative.LINE_LATTICE_SHIFTS", 2)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: prefactor")
    assert captured.err.count("\n") == 1
    assert f"p={p}, N=16 is not finite" in captured.err


def test_growth_refuses_underflowing_data_norm_power(monkeypatch, capsys):
    # the data norm 2.6e-3 to the 155th power underflows to 0: this ended
    # in a ZeroDivisionError traceback after the profile (a small lattice
    # rule keeps its generating vector over 154 dimensions fast)
    monkeypatch.setattr("bqlab.flow_derivative.LINE_LATTICE_POINTS", 7)
    monkeypatch.setattr("bqlab.flow_derivative.LINE_LATTICE_SHIFTS", 2)
    assert main(["growth", "--domain", "line", "--p", "155",
                 "--n-list", "16,32"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: data norm^p 0.0 at p=155, N=16 is not "
                            "finite and positive\n")


def test_growth_refuses_overflowing_window_mass(capsys):
    # a finite profile above about 1e154 overflowed |v|^2 in the H^s mass
    assert main(["growth", "--p", "100", "--n-list", "16,32"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: H^-1 window mass of the p=100 profile "
                            "at t=1 is not finite\n")


@pytest.mark.parametrize("argv", [
    ["--k", "1" + "0" * 160, "--norm-s", "0"],
    ["--k", "1" + "0" * 400],
    ["--k", "1" + "0" * 400, "--dt", "1", "--t-end", "1"],
], ids=["1e160", "1e400", "1e400-dt"])
def test_simulate_huge_cutoff_reaches_its_refusal(capsys, argv):
    # the weight check took (1.0 + K * K) ** s, whose integer K^2 raised
    # an OverflowError above about 1e308, and blamed the H^s weight even
    # at s = 0; the run now ends in the refusal of its step or its size
    assert main(["simulate"] + argv) in (1, 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "H^s weight" not in captured.err


def test_simulate_huge_cutoff_refusals_name_the_cutoff(capsys):
    # the default step's refusal read "got 0.0", a dt never given, and the
    # budget's read "inf row steps" at a 401-digit M in a 500-character line
    assert main(["simulate", "--k", "1" + "0" * 160, "--norm-s", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: K=1.00e+160: lambda(K) overflows, so the default step "
        "1/lambda(K) is not a finite dt > 0\n")
    assert main(["simulate", "--k", "1" + "0" * 400, "--dt", "1"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: resource budget exceeded: M=3.00e+400 alone "
                   "exceeds the simulation budget 1e+11\n")
    assert len(err) < 200


def test_simulate_refuses_overflowing_norm_column(tmp_path, capsys):
    # the H^80 weight (about 1e120 at mode 17) and the scaled amplitude are
    # each finite, but their product overflowed in full_norm: a numpy
    # warning, inf in every full_h80 row, and exit 0
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--scale", "1e60", "--norm-s", "80", "--sign",
                 "0", "--t-end", "0.01", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --norm-s 80 at --scale 1e+60: the "
                            "full_h80 norm is not finite at t=0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("every,n_rows", [("7", 144), ("5", 201)])
def test_simulate_writes_the_final_state_once(tmp_path, every, n_rows):
    # 1000 steps of 0.1 end 1.4e-12 short of t = 100, inside the clock's
    # rounding, so no remainder step is taken; at --observe-every 7 the
    # last row read t = 99.4. The final state is written once, whether the
    # schedule reaches it (every 5) or not (every 7)
    rows, _manifest = _simulate(tmp_path, [
        "--sign", "0", "--dt", "0.1", "--t-end", "100", "--observe-every",
        every])
    assert len(rows) == n_rows
    assert rows[-1, 0] == 100.0 and rows[-2, 0] < 100.0 - 0.4


@pytest.mark.parametrize("every", ["0", "-3"])
def test_simulate_refuses_observe_every_below_one(tmp_path, capsys, every):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--observe-every", every, "--out",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "observe_every" in err and not out.exists()


@pytest.mark.parametrize("argv,mode", [
    (["--p", "8", "--n", "1", "--k", "2"], 4),
    (["--p", "20", "--n", "1", "--k", "9"], 10),
])
def test_simulate_refuses_cutoff_below_output_mode(tmp_path, capsys, argv,
                                                   mode):
    # the window norm used to end in an IndexError traceback
    out = tmp_path / "traj.csv"
    assert main(["simulate"] + argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: K={argv[-1]} below the output mode "
                            f"{mode}\n")


def test_simulate_default_cutoff_covers_output_mode(capsys):
    # 4 * support = 8 lies below the output mode 10 of p = 20 at N = 1
    assert main(["simulate", "--p", "20", "--n", "1", "--scale", "0.1",
                 "--t-end", "0.1"]) == 0
    assert "p=20 K=10 " in capsys.readouterr().out


def _witness_file(tmp_path, edit):
    """A p = 2, N = 8 torus witness file, its payload passed through edit."""
    path = tmp_path / "w.json"
    assert main(["witness", "--p", "2", "--n", "8", "--out", str(path)]) == 0
    payload = _load(path)
    edit(payload)
    path.write_text(json.dumps(payload))
    return str(path)


def _both(edit_u):
    """The payload edit that applies edit_u to u0 and to u1."""
    def edit(payload):
        for key in ("u0", "u1"):
            edit_u(payload[key])
    return edit


def _keep_sign(positive):
    def edit(u):
        u["supports"] = [{"modes": [m for m in u["supports"][0]["modes"]
                                    if (m > 0) == positive]}]
        u["values"] = [row for row in u["values"] if (row[0] > 0) == positive]
    return _both(edit)


def _set(*keys, value):
    """The payload edit that sets payload[keys[0]][keys[1]]... to value."""
    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value
    return edit


def _break_mirror(payload):
    # u0 at modes -8 and -9 is no longer the conjugate of modes 8 and 9
    for row in payload["u0"]["values"]:
        if row[0] < 0:
            row[1] = 123.0


def _nan_at_minus_9(payload):
    # the first row is mode -9, which witness_state never reads
    payload["u0"]["values"][0][1] = math.nan


def _repeat_last_row(payload):
    payload["u0"]["values"].append(payload["u0"]["values"][-1])


@pytest.mark.parametrize("edit,message", [
    (_keep_sign(False), "u0: supports: torus support is not mirror-symmetric"),
    (_keep_sign(True), "u0: supports: torus support is not mirror-symmetric"),
    (_both(lambda u: u["values"].append([50.0, 1.0, 0.0])),
     "u0: values: frequency 50 lies on no support component"),
    (_break_mirror, "u0: values: not a real field"),
    (_nan_at_minus_9, "u0: values: non-finite amplitude at frequency -9"),
    (_repeat_last_row, "u0: values: frequency 9 is listed more than once"),
    (_set("u1", "N", value=99), "u1: N 99 differs from u0's 8"),
    (_set("u1", "sigma", value=5.0), "u1: sigma 5.0 differs from u0's"),
    (_set("p", value=2.7), "p: 2.7 is not an integer"),
    (_set("u0", "N", value=8.9), "u0: N: 8.9 is not an integer"),
], ids=["minus-only", "plus-only", "off-support", "not-real", "nan-value",
        "repeated-row", "u1-N", "u1-sigma", "fractional-p", "fractional-N"])
def test_simulate_init_refuses_bad_support(tmp_path, capsys, edit, message):
    # minus-only data used to be integrated as zero, plus-only as if
    # symmetric, and a sample at mode 50 ended in an IndexError; the other
    # files used to simulate as the unedited witness (p and N truncated)
    wpath = _witness_file(tmp_path, edit)
    capsys.readouterr()
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--init", wpath, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("window", [5, 999])
def test_simulate_init_refuses_foreign_window(tmp_path, capsys, window):
    # the file's window used to be trusted: 5 simulated at mode 5, and 999
    # ended in an IndexError traceback
    wpath = _witness_file(tmp_path, _set("output_window", value=window))
    capsys.readouterr()
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--init", wpath, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: {wpath}: output_window {window} is not "
                            f"1, the window of p=2 at N=8\n")
