"""Smoke test of the benchmark, kept out of the package's own test suite.

    python -m pytest perfbench/tests

runs the cheapest workload once per trace mode at --seconds 1 (about half a
minute) and checks that BENCHMARK.json parses and that the last line of the
command names every metric of BENCHMARK.json with its unit.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def test_command_emits_every_named_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]} \
        >= {("setup_s", "s", "lower")}

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable] + spec["command"][1:] + [
            "--workload", "sweep", "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
