"""Command-line driver: subcommands, config precedence, manifests, exit codes."""
import json
import os
from pathlib import Path

import pytest

import bqlab
from bqlab.cli import main


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


def test_inflate_json(tmp_path):
    out = str(tmp_path / "i.json")
    assert main(["inflate", "--p", "2", "--s", "-0.6", "--n-list", "8,16",
                 "--t-end", "0.3", "--out", out]) == 0
    payload = _load(out)
    assert [r["N"] for r in payload["rows"]] == [8, 16]
    assert all(r["sup_window_norm"] > 0 for r in payload["rows"])


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


def test_malformed_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p 7\n")
    assert main(["diophantine", "--config", str(cfg)]) == 1


def test_exit_code_validation_errors():
    assert main(["witness", "--domain", "klein-bottle"]) == 1
    assert main(["witness", "--s", "0", "--sigma", "-1"]) == 1
    assert main(["diophantine", "--p", "4"]) == 1


def test_exit_code_budget():
    assert main(["resonance", "--domain", "line", "--p", "2001",
                 "--n-list", "8"]) == 2


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


@pytest.mark.parametrize("command", ["resonance", "inflate"])
def test_empty_n_list_refused(tmp_path, capsys, command):
    out = str(tmp_path / "o.json")
    assert main([command, "--n-list", "", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "empty" in err
    assert not os.path.exists(out)
