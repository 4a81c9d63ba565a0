"""The three benchmark workloads.

Each workload turns the seed into plain inputs (numbers and argument
lists), builds the program-side inputs and warms the program's caches in
``setup``, and runs one pass of ops in ``run_pass``. An op fails when it
raises, returns a non-finite value or misses the bound its acceptance
criterion sets. Program functions are looked up on the module at call time,
so the wrappers that a traced pass installs see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import tempfile
import traceback


class Ops:
    """Outcome of the ops of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = []
        self.facts = {}

    def run(self, name, fn):
        """Run fn() as op `name`; fn returns None when the op passed and a
        one-line reason when it failed."""
        self.attempted += 1
        with self.tracer.span(name, op=f"{name}#{self.attempted}"):
            try:
                reason = fn()
            except Exception:  # noqa: BLE001 - an op that raises has failed
                reason = traceback.format_exc(limit=-1).strip()
        if reason is not None:
            self.failed.append(f"{name}: {reason}")


def _finite(z) -> bool:
    return math.isfinite(complex(z).real) and math.isfinite(complex(z).imag)


class Probe:
    """Criterion-6 finite-difference probe against the exact torus value.

    Why: the simulator does nearly all the work here, through the stiff
    dt = 0.5/lambda(K), no observer and M from 100 to 270, which is the path
    a change to the step rule or the FFT buffers targets. The points are the
    ones of criterion 6 that finish in seconds; p=3 at N=32 (about a
    minute) and N=64 (about six minutes) are left out for their length.
    """

    name = "probe"
    POINTS = ((2, 16), (2, 32), (3, 16))
    # half of criterion 6's t = 0.7, so that a run holds three passes or
    # more; each solve takes half as many steps of the same kind
    T = 0.35
    REL_TOL = 0.01

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        # measurement times within 1% of T: the step count, and with it
        # the cost, moves by at most 1%
        self.times = [round(self.T * (1.0 + rng.uniform(-0.01, 0.01)), 6)
                      for _ in self.POINTS]
        self.inputs = {"times": self.times}

    def setup(self, lab):
        self.pairs = []
        for p, N in self.POINTS:
            cfg = lab.witness.WitnessConfig(lab.spectral.Domain.TORUS, p, N,
                                            s=-1.0, sigma=0.0)
            pair = lab.witness.build_witness(cfg)
            self.pairs.append(pair)
            # warm the multiset cache and the FFT size the probe will use
            lab.flow_derivative.flow_derivative_torus(pair, p, 0.1)
            K = 2 * int(round(pair.u0.support.max_frequency()))
            stepper = lab.simulator.Stepper(lab.simulator.SimConfig(p=p, K=K))
            stepper.step(lab.simulator.witness_state(pair, K))

    def run_pass(self, lab, ops):
        worst = 0.0
        for (p, N), pair, t in zip(self.POINTS, self.pairs, self.times):
            def op(p=p, pair=pair, t=t):
                nonlocal worst
                exact = complex(lab.flow_derivative.flow_derivative_torus(
                    pair, p, t).values[0])
                probe = lab.simulator.fd_derivative_probe(pair, p, t)
                if not (_finite(exact) and _finite(probe.value)) \
                        or exact == 0:
                    return f"non-finite value {probe.value} vs {exact}"
                rel = abs(probe.value - exact) / abs(exact)
                worst = max(worst, rel)
                if not rel < self.REL_TOL:
                    return f"probe vs exact relative {rel:.3e}"
                return None
            ops.run(f"probe.p{p}_N{N}", op)
        ops.facts["probe_rel_err_max"] = worst


class Sweep:
    """Acceptance criteria 1-5, then line growth tables for p = 4..9.

    Why: flow_derivative (the time kernel, tensor quadrature for p <= 5 and
    Monte Carlo for p >= 6) and resonance do most of the work and the
    simulator none, so this shows kernel and quadrature changes and is the
    control for stepper changes.
    """

    name = "sweep"
    POWERS = tuple(range(4, 10))
    S = -1.0

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        # neither the time nor the Monte Carlo seed changes the work done
        self.times = [round(rng.uniform(0.7, 1.3), 6) for _ in self.POWERS]
        self.mc_seeds = [rng.randrange(2 ** 31) for _ in self.POWERS]
        self.inputs = {"times": self.times, "mc_seeds": self.mc_seeds}

    def setup(self, lab):
        Domain = lab.spectral.Domain
        self.n_list = lab.acceptance.GROWTH_N
        # warm the multiset cache for every (domain, p) the pass reaches
        for p in range(2, 10):
            for domain in (Domain.TORUS, Domain.LINE):
                cfg = lab.witness.WitnessConfig(domain, p, 16, s=self.S)
                target = lab.witness.output_window(cfg)
                lab.resonance.enumerate_representations(
                    target, p, lab.witness.frequency_set(cfg))
        lab.flow_derivative.time_integral(1.0, [0.5, 2.0], 1.0)

    def run_pass(self, lab, ops):
        acceptance = lab.acceptance
        for i in range(1, 6):
            def op(i=i):
                res = getattr(acceptance, f"criterion_{i}")()
                if not res.passed:
                    misses = [d for d in res.details if "MISS" in d]
                    return f"criterion {i} failed: {misses[:1]}"
                return None
            ops.run(f"sweep.criterion_{i}", op)
        for p, t, mc_seed in zip(self.POWERS, self.times, self.mc_seeds):
            def op(p=p, t=t, mc_seed=mc_seed):
                table = lab.flow_derivative.growth_table(
                    p, lab.spectral.Domain.LINE, self.S, None, t,
                    self.n_list, seed=mc_seed)
                bad = [r.N for r in table.records
                       if not (math.isfinite(r.ratio) and r.ratio > 0)]
                if bad:
                    return f"non-finite or non-positive ratio at N={bad}"
                if not math.isfinite(table.slope):
                    return f"non-finite slope {table.slope}"
                return None
            ops.run(f"sweep.growth_p{p}", op)


class Cli:
    """Every subcommand at its default settings through bqlab.cli.main.

    Why: the simulator is used differently from the probe (an observer on
    every step, M up to 1600 in inflate and inflate's non-stiff dt rule),
    and the run adds argument parsing, manifests, sha256 and CSV/JSON
    writing; a stepper gain that costs per-step overhead or large-M speed
    shows here and not in probe.
    """

    name = "cli"

    def __init__(self, seed, scratch):
        self.scratch = scratch
        rng = random.Random(seed)
        # measurement times: growth's t does not change its cost; the
        # simulate horizon stays within 1% of the default 1.0
        self.growth_t = f"{rng.uniform(0.5, 1.5):.6f}"
        self.t_end = f"{1.0 + rng.uniform(-0.01, 0.01):.6f}"
        self.inputs = {"growth_t": self.growth_t, "t_end": self.t_end}
        self.reference = None

    def commands(self, out):
        path = lambda name: os.path.join(out, name)  # noqa: E731
        return [
            ("witness", ["witness", "--out", path("witness.json")]),
            ("resonance", ["resonance", "--out", path("resonance.json")]),
            ("diophantine", ["diophantine", "--out",
                             path("diophantine.json")]),
            ("growth", ["growth", "--t", self.growth_t,
                        "--out", path("growth.csv")]),
            ("simulate", ["simulate", "--t-end", self.t_end,
                          "--out", path("simulate.csv")]),
            ("inflate", ["inflate", "--out", path("inflation.json")]),
            ("simulate", ["simulate", "--init", path("witness.json"),
                          "--t-end", self.t_end,
                          "--out", path("simulate_init.csv")]),
        ]

    def setup(self, lab):
        parser = lab.cli.build_parser()
        for _name, argv in self.commands("."):
            parser.parse_args(argv)
        # warm the FFT sizes of simulate (K = 68) and inflate (K = 4(N+1))
        sim = lab.simulator
        for p, K in [(2, 68)] + [(2, 4 * (N + 1)) for N in (16, 32, 64, 128)]:
            stepper = sim.Stepper(sim.SimConfig(p=p, K=K, dt=1e-3))
            stepper.nonlinear(stepper.lam.astype(complex))

    def run_pass(self, lab, ops):
        out = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        try:
            digests = {}
            for i, (name, argv) in enumerate(self.commands(out)):
                target = argv[-1]

                def op(argv=argv, target=target, i=i):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = lab.cli.main(argv)
                    if code != 0:
                        return f"exit code {code}"
                    with open(target, "rb") as fh:
                        data = fh.read()
                    digests[i] = (hashlib.sha256(data).hexdigest(), len(data))
                    if self.reference is not None \
                            and self.reference.get(i) != digests[i]:
                        return (f"{os.path.basename(target)} differs from "
                                "the first pass")
                    return None
                ops.run(f"cli.{name}", op)
            if self.reference is None:
                self.reference = digests
            ops.facts["cli_output_bytes"] = sum(
                size for _digest, size in digests.values())
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Probe, Sweep, Cli)}
