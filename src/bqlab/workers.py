"""Independent jobs split over the usable CPUs, with every bin but one in a
forked child process.

A caller weighs its jobs from numbers alone and splits them with its own
least bin load (work_bins), then runs the bins (run_bins). Each job is the
same code on the same inputs wherever it runs, so the results are the bits
of one process, and an error is the one the first failing job raises.
simulator.inflation_experiment (N runs, weighed in row steps x M log2 M)
and flow_derivative.growth_tables (per-N sums, weighed in kernel points)
use it.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the CPU
    count where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def work_bins(weights, min_work: float) -> list:
    """The indices of weights (estimated work of independent jobs) split
    into bins by longest processing time first: each next-heaviest job
    joins the lightest bin so far. There are min(usable CPUs, jobs) bins,
    fewer while the lightest would hold less than min_work (in the units of
    weights), and one bin of every index where os.fork is missing. Each bin
    lists its indices in ascending order; bins[0] holds the heaviest job."""
    n = min(usable_cpus(), len(weights)) if hasattr(os, "fork") else 1
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    for n_bins in range(n, 1, -1):
        bins, loads = [[] for _ in range(n_bins)], [0.0] * n_bins
        for i in order:
            b = loads.index(min(loads))
            bins[b].append(i)
            loads[b] += weights[i]
        if min(loads) >= min_work:
            return [sorted(b) for b in bins]
    return [list(range(len(weights)))]


def _run_bin(job, indices) -> dict:
    """{i: job(i)} over indices in order, up to the first job that raises
    an Exception, which maps to that error."""
    done = {}
    for i in indices:
        try:
            done[i] = job(i)
        except Exception as exc:    # run_bins raises it in index order
            done[i] = exc
            break
    return done


def _run_in_child(job, indices, r: int, w: int):
    """A forked child's whole life: run its bin, write the pickled
    outcomes to w, and leave with os._exit, which flushes none of the
    buffers (stdout included) copied from the parent."""
    status = 1
    try:
        os.close(r)
        with open(w, "wb") as out:
            pickle.dump(_run_bin(job, indices), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def run_bins(job, bins) -> list:
    """[job(i) for i in range(n)] over the n indices of bins, with the
    error of the first job that raises, in index order, as that loop would
    raise it. bins[0] runs in this process, and each other bin in a child
    made by os.fork, which sends back its pickled outcomes through a pipe
    (a bin whose fork fails runs here too). A bin stops at its first error,
    so a job is skipped only when a lower index has failed. Every child is
    reaped before this returns or raises; when this process is interrupted
    (or its own bin raises a BaseException) the children are killed
    first."""
    local, pending, outcomes = list(bins[0]), [], {}
    try:
        for indices in bins[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:     # no process to spare: run the bin here
                os.close(r)
                os.close(w)
                local += indices
                continue
            if pid == 0:
                _run_in_child(job, indices, r, w)
            pending.append((pid, r, indices))
            os.close(w)
        outcomes.update(_run_bin(job, sorted(local)))
        while pending:
            pid, r, indices = pending[0]
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(r)
            pending.pop(0)
            if code != 0:
                raise ChildProcessError(f"the worker process of jobs "
                                        f"{indices} ended with code {code}")
            outcomes.update(pickle.loads(data))
    finally:
        for pid, r, _indices in pending:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(r)
    results = []
    for i in range(sum(map(len, bins))):
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
        results.append(outcomes[i])
    return results
