"""Benchmark of the bqlab laboratory.

    python3 perfbench/run.py --workload {probe,sweep,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. One workload runs in this one process,
with BLAS and OpenMP pinned to one thread. The run sets the program up
SETUPS times (fresh import of bqlab from ./src, input construction and
first-call warm-up), then repeats passes of the workload for about
--seconds. End-to-end times are rescaled to a reference machine speed by
calibration slices sampled through every pass and around every set-up
(speed.py). With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A record of the run
(environment, inputs, every pass time, failures) is written under
.perfbench_out/, and the spans of traced passes next to it.

Exit codes: 0 after a completed run (failed ops are reported in the JSON),
2 when the program or BENCHMARK.json is missing or an argument is invalid.
"""
import os

# BLAS and OpenMP read these when numpy loads, so they are set first
THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                  "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402,F401 - imported before the timed set-ups

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUPS = 15
# untraced passes a --trace 0 run makes at least: the median of three does
# not hinge on one slow pass, and cli's byte-identity check needs two
MIN_PASSES = 3
MODULES = ("spectral", "witness", "resonance", "flow_derivative", "simulator",
           "acceptance", "cli")
NOTE = ("On the 2-core sandbox where these workloads were sized, "
        "back-to-back passes differed by up to about 25% (the probe point "
        "p=2 N=32 read 3.4-5.1 s); end-to-end times are rescaled to a "
        "reference speed (perfbench/speed.py) and the bounds in "
        "BENCHMARK.json absorb what remains.")


class Missing(Exception):
    """The checkout lacks a file the benchmark needs."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Missing(f"{path.name} not found in {ROOT}")
    with open(path) as fh:
        return json.load(fh)


def fresh_lab():
    """Import bqlab from scratch and return its modules as a namespace."""
    for name in [n for n in sys.modules
                 if n == "bqlab" or n.startswith("bqlab.")]:
        del sys.modules[name]
    importlib.import_module("bqlab")
    return types.SimpleNamespace(**{
        m: importlib.import_module("bqlab." + m) for m in MODULES})


def set_up(workload):
    """SETUPS times: import, build inputs and warm up; returns the last lab,
    every set-up time and the calibration slices around them."""
    if not (SRC / "bqlab" / "__init__.py").is_file():
        raise Missing(f"no bqlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    speed.slice_s()  # its own first call warms numpy's FFT
    times, slices = [], [speed.slice_s()]
    for _ in range(SETUPS):
        gc.collect()
        t0 = perf_counter()
        lab = fresh_lab()
        workload.setup(lab)
        times.append(perf_counter() - t0)
        slices.append(speed.slice_s())
    loaded = Path(lab.spectral.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise Missing(f"bqlab was imported from {loaded}, not from {SRC}")
    return lab, times, slices


def one_pass(workload, lab, traced):
    """One pass; untraced passes are sampled by calibration slices (see
    speed.py), traced ones only bracketed by a slice on each side."""
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    ops = workloads.Ops(tracer)
    sampler = speed.Sampler()
    gc.collect()
    before = speed.slice_s()
    with tracing.installed(tracer) if traced else sampler:
        t0 = perf_counter()
        workload.run_pass(lab, ops)
        wall = perf_counter() - t0 - sampler.spent
    slices = [before] + sampler.slices + [speed.slice_s()]
    return types.SimpleNamespace(wall=wall,
                                 wall_ref=speed.rescale(wall, slices),
                                 slices=slices, ops=ops, tracer=tracer,
                                 traced=traced)


def run_passes(workload, lab, seconds, trace):
    """Rounds of passes (one untraced pass, then a traced one when tracing)
    until the next round would end further from `seconds` past the start
    than this one; at least MIN_PASSES untraced passes, or one round when
    tracing."""
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_PASSES
    passes = []
    start = perf_counter()
    while True:
        round_ = [one_pass(workload, lab, traced) for traced in modes]
        passes += round_
        elapsed = perf_counter() - start
        if len(passes) >= min_rounds * len(modes) \
                and elapsed + sum(p.wall for p in round_) / 2 >= seconds:
            return passes


def git_commit():
    """The commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def os_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINNING},
            "os_threads": os_threads(),
            "note": NOTE}


def end_to_end(passes, setup_ref):
    return {"wall_s": statistics.median(p.wall_ref for p in passes),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(passes):
    """Layer metrics of the traced passes, and the names of exact counts
    that did not repeat across them."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [tracing.layer_metrics(tracing.span_summary(p.tracer.spans),
                                      p.tracer.counts, p.ops.facts)
                for p in traced]
    metrics = tracing.combine_passes(per_pass)
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_ref for p in traced)
        - statistics.median(p.wall_ref for p in plain))
    unsteady = [k for k in tracing.EXACT_COUNTS
                if len({m[k] for m in per_pass}) > 1]
    return metrics, unsteady


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
        workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
        lab, setup_times, setup_slices = set_up(workload)
    except (Missing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_ref = [speed.rescale(t, setup_slices[i:i + 2])
                 for i, t in enumerate(setup_times)]
    passes = run_passes(workload, lab, args.seconds, args.trace)
    failures = [f for p in passes for f in p.ops.failed]
    attempted = sum(p.ops.attempted for p in passes)
    if args.trace:
        values, unsteady = per_layer(passes)
        wanted = spec["per_layer"]
        tag = f"{args.workload}-seed{args.seed}"
        tracing.write_spans(OUT / f"{tag}-spans.json",
                            [p.tracer.spans for p in passes if p.traced])
    else:
        values, unsteady = end_to_end(passes, setup_ref), []
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {"args": vars(args), "default_seed": DEFAULT_SEED,
              "environment": environment(),
              "inputs": workload.inputs,
              "ref_slice_s": speed.REF_SLICE_S,
              "setup_s": setup_times, "setup_slices_s": setup_slices,
              "setup_ref_s": setup_ref,
              "passes": [{"traced": p.traced, "wall_s": p.wall,
                          "wall_ref_s": p.wall_ref, "slices_s": p.slices}
                         for p in passes],
              "failures": failures, "unsteady_counts": unsteady,
              "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    for line in failures:
        print(f"failed op: {line}", file=sys.stderr)
    for name in unsteady:
        print(f"count did not repeat across passes: {name}", file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
