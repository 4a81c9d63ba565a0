"""Command-line driver for the laboratory.

Subcommands: witness, resonance, diophantine, growth, simulate, inflate,
reproduce-all. Parameter precedence is explicit flags, then KEY=VALUE pairs
from --config (a key that no subcommand declares, or one set on two lines,
is refused), then built-in defaults. Every flag takes one value, the token
after it, even one such as -1,0 that argparse would read as a flag. Each
subcommand returns what --out gets, and main alone writes it
(reproduce-all: <out_dir>/criteria_summary.json) with a manifest (command,
resolved params, sha256 of file inputs, package version, wall time, output
path, and for simulate its time error estimate) beside it; without --out
(--out-dir) no file is written.

Exit codes: 0 success, 1 validation failure, unreadable input or output
file, or failed checks, 2 enumeration or simulation work budget exceeded,
before the work starts (argparse also exits 2 on malformed flags).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import math
import os
import sys
import time

import numpy as np

from . import __version__ as VERSION
from .errors import ResourceBudgetError, SimulationBlowup
from .spectral import Domain, write_csv, write_json, write_output
from .witness import WitnessConfig, WitnessPair, build_witness, data_norm
from .resonance import (closed_form_profiles, solve_diophantine,
                        verify_resonance_bounds)
from .flow_derivative import growth_table
from .simulator import (INFLATION_WINDOW, SIMULATION_TIME_TOL, SimConfig,
                        SimState, Stepper, check_simulation_budget,
                        full_norm, has_shadow, inflation_experiment,
                        linear_energy, windowed_norm, witness_state)
from .acceptance import run_criteria


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _read_config(path: str) -> dict:
    """KEY=VALUE lines; blank lines and #-comments ignored. Keys are
    normalised (lower case, - as _), and a key set on two lines is
    refused."""
    out, lines = {}, {}
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            if key in lines:
                raise ValueError(f"{path}: config key {key!r} set twice, on "
                                 f"lines {lines[key]} and {number}")
            out[key], lines[key] = val.strip(), number
    return out


def _comma_list(cast):
    """A parser of comma-separated values, each through cast."""
    return lambda text: [cast(x) for x in text.split(",") if x.strip()]


# (name, cast, default, help); cast applies to config-file strings too
_PARAMS = {
    "witness": [
        ("domain", str, "torus", "torus or line"),
        ("p", int, 2, "nonlinearity power, integer >= 2"),
        ("n", int, 16, "frequency scale N"),
        ("s", float, -1.0, "data regularity index"),
        ("sigma", float, None, "amplitude exponent, default s+1"),
        ("out", str, None, "output JSON path"),
    ],
    "resonance": [
        ("domain", str, "torus", "torus or line"),
        ("p", int, 2, "nonlinearity power"),
        ("n_list", _comma_list(int), [16, 32, 64, 128],
         "comma-separated N values"),
        ("scan_max", int, None, "dense-scan ceiling, default max(N)"),
        ("out", str, None, "output JSON path"),
    ],
    "diophantine": [
        ("p", int, 3, "odd nonlinearity power"),
        ("out", str, None, "output JSON path"),
    ],
    "growth": [
        ("domain", str, "torus", "torus or line"),
        ("p", int, 2, "nonlinearity power"),
        ("s", float, -1.0, "data regularity index"),
        ("sigma", float, None, "amplitude exponent, default s+1"),
        ("t", float, 1.0, "measurement time"),
        ("n_list", _comma_list(int), [16, 32, 64, 128, 256, 512], "N sweep"),
        ("sign", int, 1, "nonlinearity sign, +1 or -1"),
        ("out", str, None, "output CSV path"),
    ],
    "simulate": [
        ("p", int, 2, "nonlinearity power"),
        ("n", int, 16, "witness frequency scale N"),
        ("s", float, -1.0, "data regularity index"),
        ("sigma", float, None, "amplitude exponent, default s+1"),
        ("k", int, None, "mode cutoff, at least the output mode; default "
         "max(4*(max support frequency), output mode)"),
        ("dt", float, None, "time step, default 1/lambda(K), at most "
         "t_end/4"),
        ("t_end", float, 1.0, "final time"),
        ("sign", int, 1, "nonlinearity sign; 0 disables the nonlinearity"),
        ("scale", float, 1.0, "multiply the witness data by this factor"),
        ("init", str, None, "load the initial pair from this JSON file"),
        ("norm_s", _comma_list(float), None,
         "comma-separated s values for the norm columns, default the data s"),
        ("observe_every", int, None,
         "record every k-th step, default ~512 rows total"),
        ("out", str, None, "trajectory CSV path"),
    ],
    "inflate": [
        ("p", int, 2, "nonlinearity power"),
        ("s", float, -0.6, "data regularity index"),
        ("n_list", _comma_list(int), [16, 32, 64, 128], "N sweep"),
        ("delta", float, 1e-2, "data size"),
        ("t_end", float, 1.0, "time horizon"),
        ("sign", int, 1, "nonlinearity sign"),
        ("out", str, None, "output JSON path"),
    ],
    "reproduce-all": [
        ("criteria", _comma_list(int), list(range(1, 9)),
         "comma-separated criterion numbers"),
        ("out_dir", str, None, "directory for tables and reports"),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqlab",
        description="Numerical laboratory for rough-data ill-posedness of "
                    "generalized Boussinesq equations")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, params in _PARAMS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="KEY=VALUE file; flags take precedence")
        for key, _cast, default, help_text in params:
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, default=None,
                            help=f"{help_text} (default {default})")
    return parser


def _joined_flag_values(argv) -> list:
    """argv with each flag of its subcommand, or a prefix that names one
    flag alone as argparse allows, joined to the token after it as
    --flag=value. Every flag takes exactly one value, and argparse reads a
    value such as -1,0 or -1e0 as a flag of its own."""
    argv = list(argv)
    start = next((i for i, a in enumerate(argv) if a in _PARAMS), len(argv))
    if start == len(argv):
        return argv
    flags = {"--config"} | {"--" + key.replace("_", "-")
                            for key, *_ in _PARAMS[argv[start]]}
    out, rest = argv[:start + 1], iter(argv[start + 1:])
    for arg in rest:
        known = arg in flags or (arg.startswith("--") and sum(
            f.startswith(arg) for f in flags) == 1)
        value = next(rest, None) if known else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _resolve_params(args) -> dict:
    config = _read_config(args.config) if args.config else {}
    # a key of another subcommand is kept, so one file serves several
    unknown = sorted(set(config) - {key for params in _PARAMS.values()
                                    for key, *_ in params})
    if unknown:
        raise ValueError(f"{args.config}: unknown config key "
                         f"{', '.join(map(repr, unknown))}")
    resolved = {}
    for key, cast, default, _help in _PARAMS[args.command]:
        raw, source = getattr(args, key), "--" + key.replace("_", "-")
        if raw is None and key in config:
            raw, source = config[key], f"{args.config}: {key}"
        if raw is None:
            resolved[key] = default
            continue
        try:
            resolved[key] = cast(raw)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return resolved


def _domain(params) -> Domain:
    try:
        return Domain(params["domain"])
    except ValueError:
        raise ValueError(f"unknown domain {params['domain']!r}; "
                         "use torus or line")


def _witness_config(params, domain=Domain.TORUS) -> WitnessConfig:
    return WitnessConfig(domain, params["p"], params["n"], params["s"],
                         params["sigma"])


# -- subcommand bodies: return (payload for --out, exit code, input paths),
# and simulate a fourth item, the entries it adds to the manifest --

def cmd_witness(params):
    cfg = _witness_config(params, _domain(params))
    pair = build_witness(cfg)
    print(f"witness p={cfg.p} N={cfg.N} {cfg.domain.value}: "
          f"sigma={cfg.sigma:g}, window={pair.output_window}, "
          f"data norm (s={cfg.s:g}) = {data_norm(pair, cfg.s):.6e}")
    return pair.to_dict(), 0, []


def cmd_resonance(params):
    domain = _domain(params)
    report = verify_resonance_bounds(params["p"], domain, params["n_list"],
                                     scan_max=params["scan_max"])
    n_viol = sum(len(e["violations"]) for e in report.per_N)
    print(f"resonance p={params['p']} {domain.value}: N0={report.N0}, "
          f"{n_viol} violations in reported N")
    for e in report.per_N:
        print(f"  N={e['N']}: {e['n_representations']} representations, "
              f"|beta|/N^{report.scale_power} in "
              f"[{e['beta_over_scale_min']}, {e['beta_over_scale_max']}], "
              f"{len(e['violations'])} violations")
    return report.to_dict(), 0, []


def cmd_diophantine(params):
    p = params["p"]
    brute = sorted(solve_diophantine(p))
    closed = sorted(closed_form_profiles(p))
    match = brute == closed
    print(f"diophantine p={p}: {len(brute)} profiles, closed form "
          f"{'matches' if match else 'MISMATCH'}")
    for prof in brute:
        print(f"  (n1,n2,n3,n4) = {prof}")
    return ({"p": p, "profiles": [list(x) for x in brute],
             "closed_form_match": match}, 0 if match else 1, [])


def cmd_growth(params):
    domain = _domain(params)
    table = growth_table(params["p"], domain, params["s"], params["sigma"],
                         params["t"], params["n_list"], sign=params["sign"])
    print(f"growth p={params['p']} {domain.value} s={params['s']:g} "
          f"t={params['t']:g}: slope {table.slope:+.4f} "
          f"(predicted {table.predicted_slope:+.4f})")
    for r in table.records:
        print(f"  N={r.N}: ratio {r.ratio:.6e}, running slope "
              f"{r.slope_running:+.4f}")
    return table.to_csv, 0, []


def cmd_simulate(params):
    if not math.isfinite(params["scale"]):
        raise ValueError(f"need a finite scale, got {params['scale']}")
    if not all(map(math.isfinite, params["norm_s"] or [])):
        raise ValueError(f"need finite norm_s values, got {params['norm_s']}")
    inputs = []
    if params["init"]:
        pair = WitnessPair.from_json(params["init"])
        if pair.config.p != params["p"]:
            raise ValueError(f"{params['init']}: witness p={pair.config.p} "
                             f"but p={params['p']}; pass --p {pair.config.p}")
        inputs.append(params["init"])
    else:
        pair = build_witness(_witness_config(params))
    if pair.config.domain != Domain.TORUS:
        raise ValueError("only torus witnesses can be simulated")
    mode = pair.output_window
    K = params["k"]
    if K is None:
        K = max(4 * int(round(pair.u0.support.max_frequency())), mode)
    elif K < mode:
        raise ValueError(f"K={K} below the output mode {mode}")
    norm_s = params["norm_s"] or [pair.config.s]
    for s in norm_s:
        # the observer's largest H^s weight, in logs: K may exceed a float
        if s * math.log(1 + K * K) > math.log(sys.float_info.max):
            raise ValueError(f"norm_s={s:g}: the H^s weight (1 + K^2)^s at "
                             f"K={K} is not finite")
    t_end = params["t_end"]
    if not math.isfinite(t_end):
        raise ValueError(f"need a finite t_end, got {t_end}")
    config = SimConfig(p=params["p"], K=K, dt=params["dt"],
                       sign=params["sign"])
    if params["dt"] is None and 0 < t_end < 4.0 * config.dt:
        # the default step leaves the 2 dt shadow two full steps
        config = dataclasses.replace(config, dt=t_end / 4.0)
    dts = ((config.dt, 2.0 * config.dt) if has_shadow(config.dt, t_end)
           else (config.dt,))
    check_simulation_budget(config.p, K, t_end, [(0.0, h, 1) for h in dts])
    state = witness_state(pair, K)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        if params["scale"] != 1.0:
            state.u *= params["scale"]
            state.v *= params["scale"]
        e0 = linear_energy(state)
    if not np.isfinite(e0).all():
        raise ValueError(f"--scale {params['scale']:g}: the linear energy of "
                         "the scaled data is not finite")
    stepper = Stepper(config)
    window = (pair.output_window,)
    every = params["observe_every"]
    if every is None:
        n_steps = max(1, int(round(t_end / stepper.dt)))
        every = max(1, n_steps // 512)
    elif every < 1:
        raise ValueError(f"need observe_every >= 1, got {every}")
    header = (["t"] + [f"window_h{s:g}" for s in norm_s]
              + [f"full_h{s:g}" for s in norm_s])
    rows, shown, times = [], itertools.count(), []
    # the written spectra wait here to be normed a block at a time, so the
    # buffer stays at most 64 rows and 1 MB whatever the run's length
    block = np.empty((max(1, min(64, 2 ** 16 // (K + 1))), K + 1),
                     dtype=complex)

    def columns(st):
        """The norm columns of st, one value per row of a stacked st."""
        with np.errstate(over="ignore", invalid="ignore"):   # see below
            return ([windowed_norm(st, window, s) for s in norm_s]
                    + [full_norm(st, s) for s in norm_s])

    def flush():
        """Norm the buffered spectra, one stacked call per column, each row
        with the bits of its own call, and write them as rows."""
        cols = np.array(columns(SimState(0.0, block[:len(times)], None)))
        rows.extend([t] + c for t, c in zip(times, cols.T.tolist()))
        times.clear()

    def observe(st):
        if next(shown) % every == 0:
            block[len(times)] = st.u
            times.append(st.t)
            if len(times) == len(block):
                flush()

    final, shadow = stepper.integrate_with_shadow(state, t_end,
                                                  observer=observe)
    if times:
        flush()
    if rows[-1][0] < final.t:     # the schedule skipped the final state
        rows.append([final.t] + columns(final))
    # a blow-up has been refused by now: a norm weight and an amplitude
    # that are each finite can still overflow when multiplied
    finite = np.isfinite(np.array(rows)[:, 1:])
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"--norm-s {(2 * norm_s)[j]:g} at --scale "
                         f"{params['scale']:g}: the {header[j + 1]} norm is "
                         f"not finite at t={rows[i][0]:g}")
    e1 = linear_energy(final)
    mask = e0 > 0
    drift = float(np.abs(e1[mask] / e0[mask] - 1.0).max()) if mask.any() else 0.0
    # IF-RK4 is fourth order: |c(dt) - c(2 dt)| / 15 estimates the time
    # error of each written column at t_end, here relative to the column's
    # largest written value; None when the shadow took under two full
    # steps or did not stay finite
    time_err_est = None
    if shadow is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.abs(np.subtract(columns(final), columns(shadow))) / 15.0
            top = np.array(rows)[:, 1:].max(axis=0)
            est = float((gap / np.maximum(top, 1e-300)).max())
        time_err_est = est if math.isfinite(est) else None
    print(f"simulate p={params['p']} K={K} dt={stepper.dt:g} "
          f"sign={params['sign']}: reached t={final.t:g} "
          f"({len(rows)} records, window mode {window[0]}), "
          f"linear-mode energy drift {drift:.3e}, time error estimate "
          + ("n/a" if time_err_est is None else f"{time_err_est:.2e}")
          + f" (tolerance {SIMULATION_TIME_TOL:g})")
    return (lambda path: write_csv(path, header, rows), 0, inputs,
            {"time_err_est": time_err_est,
             "time_err_tol": SIMULATION_TIME_TOL})


def cmd_inflate(params):
    (result,) = inflation_experiment((params["s"],), params["n_list"],
                                     p=params["p"], delta=params["delta"],
                                     t_end=params["t_end"],
                                     sign=params["sign"])
    print(f"inflate p={params['p']} s={params['s']:g} "
          f"delta={params['delta']:g}:")
    for row in result.rows:
        print(f"  N={row.N}: sup window norm {row.sup_window_norm:.6e} "
              f"at t={row.t_peak:.4f} (initial {row.initial_window_norm:.3e})")
    return ({"p": result.p, "s": result.s, "delta": result.delta,
             "t_end": result.t_end, "window_modes": list(INFLATION_WINDOW),
             "rows": [vars(r) for r in result.rows]}, 0, [])


def cmd_reproduce_all(params):
    results = run_criteria(params["criteria"], out_dir=params["out_dir"])
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return ([{"number": r.number, "name": r.name, "passed": r.passed,
              "elapsed_s": r.elapsed, "details": r.details} for r in results],
            0 if n_fail == 0 else 1, [])


_COMMANDS = {"witness": cmd_witness, "resonance": cmd_resonance,
             "diophantine": cmd_diophantine, "growth": cmd_growth,
             "simulate": cmd_simulate, "inflate": cmd_inflate,
             "reproduce-all": cmd_reproduce_all}


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _joined_flag_values(sys.argv[1:] if argv is None else argv))
    t0 = time.perf_counter()
    try:
        params = _resolve_params(args)
        payload, code, inputs, *extra = _COMMANDS[args.command](params)
        out = params.get("out")
        manifest = out and out + ".manifest.json"
        if params.get("out_dir"):
            os.makedirs(params["out_dir"], exist_ok=True)
            out = os.path.join(params["out_dir"], "criteria_summary.json")
            manifest = os.path.join(params["out_dir"], "manifest.json")
        if out:
            write_output(out, payload)
            inputs += [args.config] if args.config else []
            write_json(manifest, {
                "command": args.command, "params": params,
                "inputs": {path: _sha256(path) for path in inputs},
                "version": VERSION,
                "wall_time_s": round(time.perf_counter() - t0, 3),
                "outputs": [out], **(extra[0] if extra else {})})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationBlowup as exc:
        print(f"error: simulation blew up: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"error: resource budget exceeded: {exc}", file=sys.stderr)
        return 2
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
