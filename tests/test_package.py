"""Import hygiene: submodules stay reachable as modules, and the package's
public names all resolve."""
import ast
import collections
import importlib.util
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import bqlab
from bqlab import flow_derivative
from bqlab.flow_derivative import (flow_derivative_line,
                                   flow_derivative_torus, growth_table,
                                   time_integral)
from bqlab.resonance import (closed_form_profiles, construct_representation,
                             enumerate_representations, solve_diophantine,
                             verify_resonance_bounds)
from bqlab.simulator import (SimConfig, SimState, Stepper,
                             fd_derivative_probe, witness_state)
from bqlab.spectral import Domain
from bqlab.witness import (WitnessConfig, build_witness, frequency_set,
                           output_window)

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bqlab.__path__))


def test_submodules_import_as_modules():
    assert "flow_derivative" in SUBMODULES
    for name in SUBMODULES:
        # `import bqlab.<name> as x` binds the package attribute, which a
        # public name of the same spelling would shadow
        scope = {}
        exec(f"import bqlab.{name} as x", scope)
        assert isinstance(scope["x"], types.ModuleType), name


def test_public_names_resolve():
    assert len(set(bqlab.__all__)) == len(bqlab.__all__)
    for name in bqlab.__all__:
        assert hasattr(bqlab, name), name


def test_package_and_kernel_check_run_without_scipy():
    # scipy is a test-only dependency: neither the package nor criterion
    # 6's kernel check may import it
    code = ("import sys, bqlab\n"
            "from bqlab.acceptance import _check_kernel\n"
            "assert _check_kernel()[0]\n"
            "print('scipy' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bqlab.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def _unused_imports(path):
    """Module-level imported names that the module never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path}:{line}: {name}" for name, line in bound.items()
                  if name not in read)


def test_no_unused_imports():
    # __init__.py imports only to re-export, so it is not scanned
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(d, f)
             for d in (os.path.dirname(bqlab.__file__), tests_dir)
             for f in sorted(os.listdir(d))
             if f.endswith(".py") and f != "__init__.py"]
    assert len(paths) > 10
    assert [u for path in paths for u in _unused_imports(path)] == []


def test_no_dead_definitions():
    # every module-level function, class and assigned name of src/bqlab is
    # read somewhere in src/bqlab, as a name or as an attribute; __init__.py
    # only re-exports, so its own names are not scanned
    src = os.path.dirname(bqlab.__file__)
    trees = {}
    for f in sorted(os.listdir(src)):
        if f.endswith(".py"):
            with open(os.path.join(src, f)) as fh:
                trees[f] = ast.parse(fh.read(), f)
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    defined = []
    for f, tree in trees.items():
        if f == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(f, node.lineno, n.id) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
    assert len(defined) > 50
    assert [f"{f}:{line}: {name}" for f, line, name in defined
            if name not in read] == []


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_entry_points_resolve():
    # the benchmark traces the LAYERS names, calls growth_table with a
    # line quadrature seed and makes the set-up calls below (probe, cli,
    # sweep) at larger K; a renamed function, keyword or attribute would
    # fail only there
    tracing = _tracing_module()
    assert tracing.LAYERS
    for owner_path, attr, _name, _count in tracing.LAYERS:
        module_name, _, cls = owner_path.partition(".")
        owner = importlib.import_module("bqlab." + module_name)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (owner_path, attr)
    inspect.signature(growth_table).bind(
        4, Domain.LINE, -1.0, None, 1.0, [16, 32], seed=7)
    pair = _torus(2)
    K = 2 * int(round(pair.u0.support.max_frequency()))
    stepper = Stepper(SimConfig(p=2, K=K))
    state = stepper.step(witness_state(pair, K))
    assert isinstance(state, SimState) and np.isfinite(state.u).all()
    stepper = Stepper(SimConfig(p=2, K=K, dt=1e-3))
    g = stepper.nonlinear(stepper.lam.astype(complex))
    assert g.shape == (K + 1,) and np.isfinite(g).all()
    assert np.isfinite(time_integral(1.0, [0.5, 2.0], 1.0)).all()


def test_benchmark_reads_existing_profile_meta(monkeypatch):
    # the benchmark's line counter reads profile meta keys by name: each
    # key it reads exists in a tensor (p = 2) or a lattice (p = 4) profile,
    # and the counter runs on both, so a renamed key fails here rather than
    # as a KeyError inside a traced op
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    keys = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "meta"
            and isinstance(node.slice, ast.Constant)}
    assert {"method", "n_patterns", "nodes_per_dim", "mc_samples"} <= keys
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", 3)
    monkeypatch.setattr(flow_derivative, "LINE_LATTICE_POINTS", 61)
    profiles = [flow_derivative.flow_derivative_line(
        build_witness(WitnessConfig(Domain.LINE, p, 16, s=-1.0)), p, 1.0)
        for p in (2, 4)]
    assert [pr.meta["method"] for pr in profiles] == ["tensor", "lattice"]
    assert keys <= set(profiles[0].meta) | set(profiles[1].meta)
    counts = collections.defaultdict(float)
    count_line = _tracing_module()._count_line
    for prof in profiles:
        count_line(counts, (), {}, prof)
    assert counts["flow_derivative.line_patterns"] > 0


def test_kernel_calls_pass_beta_second():
    # the benchmark's kernel counter reads beta as args[1]: every call of
    # time_integral in src/bqlab passes alpha and beta positionally, with
    # no star expansion
    src = os.path.dirname(bqlab.__file__)
    calls = []
    for f in sorted(os.listdir(src)):
        if f.endswith(".py"):
            with open(os.path.join(src, f)) as fh:
                tree = ast.parse(fh.read(), f)
            calls += [(f, node) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(
                          node.func, "attr", None)) == "time_integral"]
    assert len(calls) >= 3
    for f, call in calls:
        assert len(call.args) >= 2, (f, call.lineno)
        assert not any(isinstance(a, ast.Starred) for a in call.args[:2]), (
            f, call.lineno)


def _torus(p):
    return build_witness(WitnessConfig(Domain.TORUS, p, 16, s=-1.0))


# (p, call of p) per public entry point that takes p; each call's repr is
# compared, so a float that leaks into a result shows
P_ENTRY_POINTS = {
    "WitnessConfig": (2, lambda p: WitnessConfig(Domain.LINE, p, 16, -1.0)),
    "verify_resonance_bounds": (3, lambda p: verify_resonance_bounds(
        p, Domain.TORUS, [16]).to_dict()),
    "enumerate_representations": (3, lambda p: enumerate_representations(
        output_window(WitnessConfig(Domain.TORUS, 3, 16, -1.0)), p,
        frequency_set(WitnessConfig(Domain.TORUS, 3, 16, -1.0)))),
    "solve_diophantine": (3, solve_diophantine),
    "closed_form_profiles": (3, closed_form_profiles),
    "construct_representation": (3, lambda p: vars(construct_representation(
        sum(output_window(WitnessConfig(Domain.LINE, 3, 30, 0.0))) / 2, p,
        30))),
    "flow_derivative_torus": (2, lambda p: flow_derivative_torus(
        _torus(2), p, 1.0).values.tolist()),
    "flow_derivative_line": (2, lambda p: flow_derivative_line(
        build_witness(WitnessConfig(Domain.LINE, 2, 16, s=-1.0)), p,
        1.0).values.tolist()),
    "growth_table": (2, lambda p: growth_table(
        p, Domain.TORUS, -1.0, None, 1.0, [16, 32])),
    "fd_derivative_probe": (2, lambda p: fd_derivative_probe(
        _torus(2), p, 0.05).value),
    "Stepper.nonlinear": (2, lambda p: Stepper(SimConfig(p=p, K=8)).nonlinear(
        np.linspace(0.0, 1.0, 9).astype(complex)).tolist()),
}


@pytest.mark.parametrize("name", sorted(P_ENTRY_POINTS))
def test_p_is_one_integer_check(name):
    # an integral float p gives the int's result; a fractional, non-finite
    # or too small p is refused with one message at every entry point
    p, call = P_ENTRY_POINTS[name]
    assert repr(call(float(p))) == repr(call(p))
    for bad in (2.5, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="p must be an integer >= 2"):
            call(bad)
