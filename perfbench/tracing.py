"""In-memory spans around the public functions of bqlab, installed from
outside the package.

A traced pass replaces each function in LAYERS, in every bqlab module that
bound it, by a wrapper that appends one span ``[name, start, end, parent,
op]`` and updates the layer's work counters. The originals are restored when
the pass ends, so untraced passes run the unmodified program.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name, op=None):
        """A span opened by the benchmark itself; op, when given, tags it
        and every span below it with that op id."""
        outer_op = self.op
        if op is not None:
            self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.op = outer_op


class NullTracer:
    """Stands in for Tracer in untraced passes."""

    @contextlib.contextmanager
    def span(self, name, op=None):
        yield


# -- work counters, called after the wrapped function returned --------------

def _count_enumerate(counts, args, kwargs, result):
    p, A = args[1], args[2]
    n_sym = 2 * len(A.components)
    counts["resonance.multisets"] += math.comb(p + n_sym - 1, n_sym - 1)
    counts["resonance.representations"] += len(result)


def _count_kernel(counts, args, kwargs, result):
    beta = args[1] if len(args) > 1 else kwargs["beta"]
    counts["flow_derivative.kernel_betas"] += getattr(beta, "size", 1)


def _count_line(counts, args, kwargs, result):
    meta, n_xi = result.meta, result.xi.size
    per_xi = n_xi * meta["n_patterns"]
    if meta["method"] == "tensor":
        counts["flow_derivative.tensor_nodes_computed"] += \
            per_xi * meta["nodes_per_dim"] ** (result.p - 1)
    else:
        counts["flow_derivative.mc_samples"] += per_xi * meta["mc_samples"]
        peak = max(abs(complex(v)) for v in result.values)
        if peak > 0:
            rel = meta["mc_halfwidth_max"] / peak
            counts["flow_derivative.mc_halfwidth_rel_max"] = max(
                counts["flow_derivative.mc_halfwidth_rel_max"], rel)
    counts["flow_derivative.line_patterns"] += meta["n_patterns"]
    counts["flow_derivative.mc_warnings"] += len(meta["warnings"])


def _count_nonlinear(counts, args, kwargs, result):
    stepper = args[0]
    if stepper.sign != 0:
        counts["simulator.fft_points_computed"] += stepper.M
        counts["simulator.max_M"] = max(counts["simulator.max_M"], stepper.M)


# (owner inside bqlab, attribute, span name, counter)
LAYERS = [
    ("spectral", "dispersion", "spectral.dispersion", None),
    ("spectral", "sobolev_norm", "spectral.sobolev_norm", None),
    ("witness", "build_witness", "witness.build", None),
    ("witness", "data_norm", "witness.data_norm", None),
    ("resonance", "enumerate_representations", "resonance.enumerate",
     _count_enumerate),
    ("resonance", "beta_range", "resonance.beta_range", None),
    ("resonance", "verify_resonance_bounds", "resonance.audit", None),
    ("resonance", "solve_diophantine", "resonance.bookkeeping", None),
    ("resonance", "closed_form_profiles", "resonance.bookkeeping", None),
    ("resonance", "construct_representation", "resonance.bookkeeping", None),
    ("flow_derivative", "time_integral", "flow_derivative.kernel",
     _count_kernel),
    ("flow_derivative", "flow_derivative_line", "flow_derivative.line",
     _count_line),
    ("flow_derivative", "flow_derivative_torus", "flow_derivative.torus",
     None),
    ("flow_derivative", "growth_table", "flow_derivative.growth_table", None),
    ("simulator.Stepper", "integrate", "simulator.integrate", None),
    ("simulator.Stepper", "nonlinear", "simulator.nonlinear",
     _count_nonlinear),
    ("simulator", "fd_derivative_probe", "simulator.probe", None),
    ("simulator", "inflation_experiment", "simulator.inflation", None),
] + [("acceptance", f"criterion_{i}", f"acceptance.criterion_{i}", None)
     for i in range(1, 6)]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every LAYERS function for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "bqlab" or name.startswith("bqlab.")]
    saved = []
    try:
        for owner_path, attr, name, count in LAYERS:
            module_name, _, cls = owner_path.partition(".")
            owner = sys.modules["bqlab." + module_name]
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, name, count)
            # modules that did `from .x import f` hold their own binding
            targets = [owner] if cls else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        saved.append((target, key, original))
        yield tracer
    finally:
        for target, key, original in reversed(saved):
            setattr(target, key, original)


# -- derived numbers --------------------------------------------------------

def span_summary(spans):
    """Per span name: calls, inclusive seconds (spans nested in a span of
    the same name are not counted twice) and self seconds (span minus the
    time its direct children cover)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            row["inclusive_s"] += end - start
    return out


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(summary, counts, facts):
    """The per-layer metrics of one traced pass, as plain numbers."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def incl(name):
        return summary.get(name, {}).get("inclusive_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    c = counts
    m = {}
    nl_calls = calls("simulator.nonlinear")
    m["simulator.integrate_calls"] = calls("simulator.integrate")
    m["simulator.integrate_s"] = incl("simulator.integrate")
    m["simulator.integrate_self_s"] = self_s("simulator.integrate")
    m["simulator.nonlinear_calls"] = nl_calls
    m["simulator.nonlinear_s"] = incl("simulator.nonlinear")
    m["simulator.nonlinear_share"] = _div(m["simulator.nonlinear_s"],
                                          m["simulator.integrate_s"])
    m["simulator.steps"] = nl_calls // 4
    m["simulator.us_per_step"] = 1e6 * _div(m["simulator.integrate_s"],
                                            m["simulator.steps"])
    m["simulator.max_M"] = int(c["simulator.max_M"])
    m["simulator.fft_points_computed"] = int(c["simulator.fft_points_computed"])
    m["simulator.probe_s"] = incl("simulator.probe")
    m["simulator.probe_rel_err_max"] = facts.get("probe_rel_err_max", 0.0)
    m["simulator.inflation_s"] = incl("simulator.inflation")

    m["flow_derivative.kernel_calls"] = calls("flow_derivative.kernel")
    m["flow_derivative.kernel_betas"] = int(c["flow_derivative.kernel_betas"])
    m["flow_derivative.kernel_s"] = incl("flow_derivative.kernel")
    m["flow_derivative.kernel_betas_per_s"] = _div(
        m["flow_derivative.kernel_betas"], m["flow_derivative.kernel_s"])
    m["flow_derivative.line_calls"] = calls("flow_derivative.line")
    m["flow_derivative.line_s"] = incl("flow_derivative.line")
    m["flow_derivative.line_self_s"] = self_s("flow_derivative.line")
    m["flow_derivative.line_patterns"] = int(c["flow_derivative.line_patterns"])
    m["flow_derivative.line_s_per_pattern"] = _div(
        m["flow_derivative.line_s"], m["flow_derivative.line_patterns"])
    m["flow_derivative.tensor_nodes_computed"] = int(
        c["flow_derivative.tensor_nodes_computed"])
    m["flow_derivative.mc_samples"] = int(c["flow_derivative.mc_samples"])
    m["flow_derivative.mc_halfwidth_rel_max"] = \
        c["flow_derivative.mc_halfwidth_rel_max"]
    m["flow_derivative.mc_warnings"] = int(c["flow_derivative.mc_warnings"])
    m["flow_derivative.torus_s"] = incl("flow_derivative.torus")
    m["flow_derivative.growth_table_s"] = incl("flow_derivative.growth_table")

    m["resonance.enumerate_calls"] = calls("resonance.enumerate")
    m["resonance.enumerate_s"] = incl("resonance.enumerate")
    m["resonance.multisets"] = int(c["resonance.multisets"])
    m["resonance.multisets_per_s"] = _div(m["resonance.multisets"],
                                          m["resonance.enumerate_s"])
    m["resonance.representations"] = int(c["resonance.representations"])
    m["resonance.beta_range_calls"] = calls("resonance.beta_range")
    m["resonance.beta_range_s"] = incl("resonance.beta_range")
    m["resonance.audit_s"] = incl("resonance.audit")
    m["resonance.bookkeeping_s"] = incl("resonance.bookkeeping")

    m["spectral.dispersion_calls"] = calls("spectral.dispersion")
    m["spectral.dispersion_s"] = incl("spectral.dispersion")
    m["spectral.sobolev_norm_s"] = incl("spectral.sobolev_norm")
    m["witness.build_calls"] = calls("witness.build")
    m["witness.build_s"] = incl("witness.build")
    m["witness.data_norm_s"] = incl("witness.data_norm")

    for i in range(1, 6):
        m[f"acceptance.criterion_{i}_s"] = incl(f"acceptance.criterion_{i}")
    for cmd in ("witness", "resonance", "diophantine", "growth", "simulate",
                "inflate"):
        m[f"cli.{cmd}_s"] = incl(f"cli.{cmd}")
    m["cli.output_bytes"] = facts.get("cli_output_bytes", 0)
    return m


# counts that must repeat exactly across passes at one seed
EXACT_COUNTS = ("simulator.steps", "simulator.nonlinear_calls",
                "flow_derivative.kernel_betas", "resonance.multisets",
                "resonance.representations")


def combine_passes(per_pass):
    """One value per metric: integers (counts) from the first pass, timings
    and ratios as the median over passes."""
    out = {}
    for key, first in per_pass[0].items():
        if isinstance(first, int):
            out[key] = first
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    return out


def write_spans(path, passes):
    """Spans of every traced pass and their per-name summary, as JSON."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "passes": [{"summary": span_summary(spans),
                               "spans": spans} for spans in passes]},
                  fh, separators=(",", ":"))
