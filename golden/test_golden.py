"""Smoke test of the golden-output check, kept out of the package's own
test suite.

    python -m pytest golden/

runs golden/check.py once (about ten seconds) and checks its report of
differing numbers on a made-up pair of outputs.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "golden"))

import check  # noqa: E402


def test_outputs_match_committed_digests():
    done = subprocess.run([sys.executable, "golden/check.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    # on another Python or numpy build the check reports and passes
    n_files = len(json.loads(check.DIGESTS.read_text())["files"])
    last = done.stdout.splitlines()[-1]
    assert (last == f"golden: all {n_files} outputs match digests.json"
            or last.endswith("reported, not failed"))


def test_mismatch_report_names_first_moved_numbers():
    recorded = {"a.csv": "0", "b.csv": "1", "c.csv": "2"}
    measured = {"a.csv": "0", "b.csv": "9", "d.csv": "3"}
    assert check.differing(recorded, measured) == ["b.csv", "c.csv", "d.csv"]
    old = "N,ratio,slope\n16,1.5e-03,nan\n32,2.0e-03,+1.0000\n"
    new = "N,ratio,slope\n16,1.5e-03,nan\n32,2.2e-03,+1.0100\n"
    assert check.number_moves(old, new) == [
        "line 3: 2.0e-03 -> 2.2e-03", "line 3: +1.0000 -> +1.0100",
        "largest relative move 1.000e-01 (2 differing numbers or lines)"]
    assert check.number_moves(old, old) == []
