"""Byte identity of bqlab's default outputs, checked against committed
digests.

    python golden/check.py            # compare with golden/digests.json
    python golden/check.py --write    # record this checkout's digests

Run it from anywhere; it imports bqlab from the src/ next to this
directory. It runs reproduce-all and the fixed CLI set of COMMANDS, each
in its own interpreter, into a temporary directory and takes the sha256 of
every output file and of each command's standard output. The outputs that
carry wall times are left out (SKIPPED, the manifests) or have their
timings stripped (reproduce-all's per-criterion elapsed time). digests.json
records the Python and numpy versions beside the digests.

On a mismatch it names the files that differ. When the checkout is a git
repository, it also runs the same commands on the src of the last commit
that changed digests.json, which made those digests, and prints each
differing file's first differing numbers and their largest relative move.
It exits 1 on a mismatch under the recorded Python and numpy versions. On
another build it reports the differences and exits 0: the bits of a
floating-point result may move with the libraries.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "golden" / "digests.json"

# (name, argv): stdout goes to <name>.stdout, --out to a file named for it
COMMANDS = [
    ("reproduce-all", ["reproduce-all", "--out-dir", "reproduce-all"]),
    ("witness", ["witness", "--out", "witness.json"]),
    ("resonance", ["resonance", "--out", "resonance.json"]),
    ("diophantine", ["diophantine", "--out", "diophantine.json"]),
    ("growth", ["growth", "--out", "growth.csv"]),
    ("growth-line-p5", ["growth", "--domain", "line", "--p", "5",
                        "--out", "growth-line-p5.csv"]),
    ("simulate", ["simulate", "--out", "simulate.csv"]),
    ("simulate-init", ["simulate", "--init", "witness.json",
                       "--out", "simulate-init.csv"]),
    ("inflate", ["inflate", "--out", "inflate.json"]),
    ("inflate-p3-minus", ["inflate", "--p", "3", "--sign", "-1",
                          "--out", "inflate-p3-minus.json"]),
]
# outputs that hold wall times (criteria_summary.json: elapsed_s)
SKIPPED = {"criteria_summary.json", "manifest.json"}
ELAPSED = re.compile(r" \(\d+\.\ds\)$", re.MULTILINE)   # "[PASS] ... (1.9s)"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def build() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_outputs(src: Path, out: Path) -> dict:
    """Run COMMANDS with the bqlab of src in the directory out; the digest
    of every kept output, by its path relative to out."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "bqlab.cli", *argv],
                              cwd=out, env=env, capture_output=True,
                              text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{name} exited {done.returncode}: "
                               f"{done.stderr.strip()}")
        (out / f"{name}.stdout").write_text(ELAPSED.sub("", done.stdout))
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name not in SKIPPED
            and not path.name.endswith(".manifest.json")}


def differing(recorded: dict, measured: dict) -> list:
    """The names whose digest differs, or that only one side has."""
    return sorted(name for name in recorded.keys() | measured.keys()
                  if recorded.get(name) != measured.get(name))


def number_moves(old: str, new: str, first: int = 3) -> list:
    """Lines describing how the numbers of the text new differ from those
    of old: the first few differing numbers with their line, then the
    largest relative move over the file."""
    moves, largest = [], 0.0
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        xs, ys = NUMBER.findall(a), NUMBER.findall(b)
        if len(xs) != len(ys):
            moves.append(f"line {number}: {a!r} -> {b!r}")
            continue
        for x, y in zip(xs, ys):
            if x == y:
                continue
            moves.append(f"line {number}: {x} -> {y}")
            fx, fy = float(x), float(y)
            if fx != 0.0 and np.isfinite(fx) and np.isfinite(fy):
                largest = max(largest, abs(fy - fx) / abs(fx))
    report = moves[:first]
    if len(old_lines) != len(new_lines):
        report.append(f"{len(old_lines)} lines -> {len(new_lines)} lines")
    if largest:
        report.append(f"largest relative move {largest:.3e} "
                      f"({len(moves)} differing numbers or lines)")
    return report


def reference_src(into: Path):
    """The src of the last commit that changed digests.json, extracted
    into the directory into, or None outside a git checkout or before the
    file is committed."""
    try:
        log = subprocess.run(["git", "-C", str(ROOT), "log", "-1",
                              "--format=%H", "--", "golden/digests.json"],
                             capture_output=True, text=True)
    except OSError:     # no git
        return None
    commit = log.stdout.strip()
    if log.returncode != 0 or not commit:
        return None
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit,
                              "src"], capture_output=True, check=True)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record this checkout's digests")
    write = parser.parse_args(argv).write
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "run")
        out.mkdir()
        measured = run_outputs(ROOT / "src", out)
        if write:
            DIGESTS.write_text(json.dumps({**build(), "files": measured},
                                          indent=1) + "\n")
            print(f"golden: wrote {len(measured)} digests")
            return 0
        recorded = json.loads(DIGESTS.read_text())
        names = differing(recorded["files"], measured)
        if not names:
            print(f"golden: all {len(measured)} outputs match digests.json")
            return 0
        print(f"golden: {len(names)} of {len(recorded['files'])} outputs "
              f"differ from digests.json")
        src = reference_src(Path(tmp, "reference"))
        ref = Path(tmp, "reference-run")
        if src is not None:
            ref.mkdir()
            run_outputs(src, ref)
        for name in names:
            if name not in measured or name not in recorded["files"]:
                side = "this run" if name in measured else "digests.json"
                print(f"  {name}: only in {side}")
                continue
            print(f"  {name}")
            if src is not None and (ref / name).exists():
                for line in number_moves((ref / name).read_text(),
                                         (out / name).read_text()):
                    print(f"    {line}")
    here = build()
    if any(recorded.get(key) != value for key, value in here.items()):
        print(f"golden: digests made with Python {recorded.get('python')}, "
              f"numpy {recorded.get('numpy')}; this is Python "
              f"{here['python']}, numpy {here['numpy']}: reported, not failed")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
