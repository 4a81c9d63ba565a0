"""The eight go/no-go checks for the laboratory, shared by the test suite
and the reproduce-all command.

Each criterion function runs self-contained, returns a CriterionResult with
one-line details, and optionally writes its tables and reports under an
output directory. Numbering follows docs/schemas.md.
"""
from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import Domain, dispersion
from .witness import WitnessConfig, build_witness, output_window
from .resonance import (closed_form_profiles, construct_representation,
                        solve_diophantine, verify_resonance_bounds)
from .flow_derivative import (flow_derivative_torus, growth_table,
                              predicted_growth_slope, time_integral)
from .simulator import (SimConfig, SimState, Stepper, fd_derivative_probe,
                        inflation_experiment, linear_energy, witness_state)

GROWTH_N = (16, 32, 64, 128, 256, 512)
AUDIT_N = (16, 32, 64, 128)
T_TRIPLE = (0.7, 1.0, 1.3)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    details: list = field(default_factory=list)

    def __post_init__(self):    # criteria accumulate numpy booleans
        self.passed = bool(self.passed)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion-{self.number} {self.name} ({self.elapsed:.1f}s)"


def _timer():
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


def _maybe_write(out_dir, name, payload):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    if name.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
    else:
        payload.to_csv(path)


def criterion_1(out_dir=None) -> CriterionResult:
    """Even-p exponent fit: p=2, both domains, s in {-1, -0.75}, slope of
    log ratio vs log N within 0.15 of -(ps+1) for >= 2 of 3 times."""
    done = _timer()
    details, ok = [], True
    for domain in (Domain.TORUS, Domain.LINE):
        for s in (-1.0, -0.75):
            target = predicted_growth_slope(2, s)
            hits = 0
            for t in T_TRIPLE:
                table = growth_table(2, domain, s, None, t, GROWTH_N)
                good = abs(table.slope - target) <= 0.15
                hits += good
                details.append(
                    f"p=2 {domain.value} s={s} t={t}: slope "
                    f"{table.slope:+.3f} vs {target:+.3f}"
                    f"{'' if good else ' MISS'}")
                _maybe_write(out_dir,
                             f"growth_p2_{domain.value}_s{s}_t{t}.csv", table)
            if hits < 2:
                ok = False
                details.append(f"p=2 {domain.value} s={s}: {hits}/3 within 0.15")
    elapsed = done()
    if elapsed >= 60.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s exceeds 60s")
    return CriterionResult(1, "exponent-fit-even", ok, elapsed, details)


def criterion_2(out_dir=None) -> CriterionResult:
    """Odd-p exponent fit at t=1: p=3 torus within 0.15 of -(ps+2), line
    (tensor quadrature) within 0.25."""
    done = _timer()
    details, ok = [], True
    for domain, tol in ((Domain.TORUS, 0.15), (Domain.LINE, 0.25)):
        for s in (-1.0, -0.8):
            target = predicted_growth_slope(3, s)
            table = growth_table(3, domain, s, None, 1.0, GROWTH_N)
            good = abs(table.slope - target) <= tol
            ok &= good
            details.append(
                f"p=3 {domain.value} s={s}: slope {table.slope:+.3f} vs "
                f"{target:+.3f} (tol {tol}){'' if good else ' MISS'}")
            _maybe_write(out_dir, f"growth_p3_{domain.value}_s{s}.csv", table)
    elapsed = done()
    if elapsed >= 600.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s exceeds 600s")
    return CriterionResult(2, "exponent-fit-odd", ok, elapsed, details)


def criterion_3(out_dir=None) -> CriterionResult:
    """Threshold sign change: slope negative above the critical index,
    positive below. p=2 across s=-1/2 (both domains), p=3 torus across
    s=-2/3."""
    done = _timer()
    details, ok = [], True
    checks = [(2, Domain.TORUS, 0.0, -1), (2, Domain.TORUS, -1.0, +1),
              (2, Domain.LINE, 0.0, -1), (2, Domain.LINE, -1.0, +1),
              (3, Domain.TORUS, -2.0 / 3.0 + 0.25, -1),
              (3, Domain.TORUS, -2.0 / 3.0 - 0.25, +1)]
    for p, domain, s, want in checks:
        table = growth_table(p, domain, s, None, 1.0, GROWTH_N)
        good = table.slope < 0 if want < 0 else table.slope > 0
        ok &= good
        details.append(
            f"p={p} {domain.value} s={s:+.4f}: slope {table.slope:+.3f}, "
            f"want {'<0' if want < 0 else '>0'}{'' if good else ' MISS'}")
    return CriterionResult(3, "threshold-sign-change", ok, done(), details)


def criterion_4(out_dir=None) -> CriterionResult:
    """Resonance bounds: p in 2..9, both domains, N0 <= 128 and clean
    sign-definite windows from N0 on; p=3 torus beta/N^2 within 5% of 2 at
    N=512."""
    done = _timer()
    details, ok = [], True
    for p in range(2, 10):
        for domain in (Domain.TORUS, Domain.LINE):
            report = verify_resonance_bounds(p, domain, AUDIT_N)
            good = report.N0 <= 128
            for entry in report.per_N:
                if entry["N"] < report.N0:
                    continue
                if entry["violations"]:
                    good = False
                if entry["n_representations"] > 0 \
                        and not entry["beta_over_scale_min"] > 0.0:
                    good = False
            ok &= good
            spans = [e for e in report.per_N if e["n_representations"] > 0]
            lo = min(e["beta_over_scale_min"] for e in spans) if spans else None
            details.append(
                f"p={p} {domain.value}: N0={report.N0}, min |beta|/N^"
                f"{report.scale_power} = "
                f"{lo if lo is None else format(lo, '.4f')}"
                f"{'' if good else ' MISS'}")
            _maybe_write(out_dir, f"resonance_p{p}_{domain.value}.json",
                         report.to_dict())
    report = verify_resonance_bounds(3, Domain.TORUS, [512])
    entry = report.per_N[-1]
    lo, hi = entry["beta_over_scale_min"], entry["beta_over_scale_max"]
    good = abs(lo - 2.0) <= 0.1 and abs(hi - 2.0) <= 0.1
    ok &= good
    details.append(f"p=3 torus N=512: beta/N^2 in [{lo:.5f}, {hi:.5f}]"
                   f"{'' if good else ' MISS'}")
    return CriterionResult(4, "resonance-bounds", ok, done(), details)


def criterion_5(out_dir=None) -> CriterionResult:
    """Diophantine bookkeeping: brute-force tallies match the closed forms
    for odd p in 3..25; every point of a 1000-point window grid is
    representable for p in {3,5,7} at N=64."""
    done = _timer()
    details, ok = [], True
    for p in range(3, 26, 2):
        brute = set(solve_diophantine(p))
        closed = set(closed_form_profiles(p))
        good = brute == closed
        ok &= good
        details.append(f"p={p}: {len(brute)} profiles"
                       f"{'' if good else ' MISMATCH'}")
    for p in (3, 5, 7):
        N = 64
        wlo, whi = output_window(WitnessConfig(Domain.LINE, p, N, s=0.0))
        grid = wlo + (np.arange(1000) + 0.5) * (whi - wlo) / 1000
        worst = 0.0
        for xi in grid:
            rep = construct_representation(float(xi), p, N)
            worst = max(worst, rep.defect)
        good = worst < 1e-12
        ok &= good
        details.append(f"p={p} N=64: 1000 grid points, max defect "
                       f"{worst:.2e}{'' if good else ' MISS'}")
    return CriterionResult(5, "diophantine-equivalence", ok, done(), details)


def _mp_time_integral(alpha: float, beta: float, t: float):
    """K(alpha, beta, t) = int_0^t sin(alpha (t - u)) e^{i beta u} du by
    mpmath quadrature at 30 digits, split at the multiples of pi/|beta| so
    that no piece holds more than half an oscillation of the beta factor.
    Returns the value and the larger error estimate of its two parts."""
    import mpmath as mp
    with mp.workdps(30):
        a, b, T = mp.mpf(alpha), mp.mpf(beta), mp.mpf(t)
        half = mp.pi / abs(b) if b else T
        pts = [k * half for k in range(int(T / half) + 1)] + [T]
        if pts[-2] == T:
            pts.pop()
        re, err_re = mp.quad(lambda u: mp.sin(a * (T - u)) * mp.cos(b * u),
                             pts, error=True)
        im, err_im = mp.quad(lambda u: mp.sin(a * (T - u)) * mp.sin(b * u),
                             pts, error=True)
        return complex(float(re), float(im)), float(max(err_re, err_im))


def criterion_6(out_dir=None) -> CriterionResult:
    """Analytic/numeric equivalence: closed-form kernel vs adaptive
    quadrature on 1000 random triples (< 1e-9 relative); exact torus
    derivative vs the finite-difference flow probe (< 1% relative).

    A triple whose scipy quadrature raises IntegrationWarning is checked
    against a 30-digit mpmath reference instead; one whose mpmath error
    estimate is not below 1e-15 relative still counts as a warning, and
    any warning left is a miss."""
    from scipy.integrate import IntegrationWarning, quad
    done = _timer()
    details, ok = [], True
    rng = np.random.default_rng(20260819)
    worst = 0.0
    n_warned = n_left = 0
    for _ in range(1000):
        alpha = dispersion(rng.uniform(0.1, 6.0))
        beta = rng.uniform(-80.0, 80.0)
        t = rng.uniform(0.05, 2.0)
        closed = time_integral(alpha, beta, t)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            re = quad(lambda u: math.sin(alpha * (t - u))
                      * math.cos(beta * u),
                      0.0, t, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
            im = quad(lambda u: math.sin(alpha * (t - u))
                      * math.sin(beta * u),
                      0.0, t, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
        ref = re + 1j * im
        if any(issubclass(w.category, IntegrationWarning) for w in caught):
            n_warned += 1
            ref, err = _mp_time_integral(alpha, beta, t)
            n_left += err > 1e-15 * max(abs(ref), 1e-9)
        worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-9))
    good = worst < 1e-9 and n_left == 0
    ok &= good
    details.append(f"kernel vs quadrature: worst relative {worst:.3e} "
                   f"({n_warned} quad warnings re-checked against mpmath, "
                   f"{n_left} left){'' if good else ' MISS'}")
    for p in (2, 3):
        for N in (16, 32, 64):
            cfg = WitnessConfig(Domain.TORUS, p, N, s=-1.0, sigma=0.0)
            pair = build_witness(cfg)
            exact = complex(flow_derivative_torus(pair, p, 0.7).values[0])
            probe = fd_derivative_probe(pair, p, 0.7)
            rel = abs(probe.value - exact) / abs(exact)
            good = rel < 0.01
            ok &= good
            details.append(
                f"p={p} N={N}: probe vs exact relative {rel:.2e} "
                f"(ladder spread {probe.rel_spread:.2e}, time-error "
                f"estimate {probe.meta['dt_err_est']:.2e})"
                f"{'' if good else ' MISS'}")
    return CriterionResult(6, "kernel-and-probe", ok, done(), details)


def criterion_7(out_dir=None) -> CriterionResult:
    """Simulator integrity: exact linear propagation, 4th-order
    self-convergence, per-mode energy conservation."""
    done = _timer()
    details, ok = [], True

    # nonlinearity off: stepping must reproduce the closed-form rotation
    cfg = WitnessConfig(Domain.TORUS, 2, 16, s=-1.0, sigma=0.0)
    pair = build_witness(cfg)
    K = 68
    state = witness_state(pair, K)
    stepper = Stepper(SimConfig(p=2, K=K, dt=0.013, sign=0))
    final = stepper.integrate(state, 1.0)
    expect = np.zeros(K + 1, dtype=complex)
    lam = dispersion(np.arange(K + 1, dtype=float))
    for freq, a0, a1 in zip(pair.u0.freqs, pair.u0.values, pair.u1.values):
        if freq >= 0:
            k = int(round(freq))
            expect[k] = (math.cos(lam[k] * 1.0) * a0
                         + math.sin(lam[k] * 1.0) / lam[k] * a1)
    err = float(np.abs(final.u - expect).max())
    good = err < 1e-12
    ok &= good
    details.append(f"linear match: max abs {err:.2e}{'' if good else ' MISS'}")

    # nonlinearity on but amplitude 1e-8: still linear to 1e-12 absolute
    tiny = witness_state(pair, K)
    tiny.u *= 1e-8
    tiny.v *= 1e-8
    final = Stepper(SimConfig(p=2, K=K, dt=0.013, sign=1)).integrate(tiny, 1.0)
    err = float(np.abs(final.u - 1e-8 * expect).max())
    good = err < 1e-12
    ok &= good
    details.append(f"small-amplitude linear regime: max abs {err:.2e}"
                   f"{'' if good else ' MISS'}")

    # Richardson self-convergence with the nonlinearity on
    cfg = WitnessConfig(Domain.TORUS, 2, 2, s=-1.0, sigma=0.0)
    pair = build_witness(cfg)
    K = 12
    t_end = 0.1
    sols = []
    for dt in (2e-3, 1e-3, 5e-4):
        st = Stepper(SimConfig(p=2, K=K, dt=dt, sign=1)).integrate(
            witness_state(pair, K), t_end)
        sols.append(np.concatenate([st.u, st.v]))
    e1 = float(np.linalg.norm(sols[0] - sols[1]))
    e2 = float(np.linalg.norm(sols[1] - sols[2]))
    order = math.log2(e1 / e2)
    good = 3.7 <= order <= 4.3
    ok &= good
    details.append(f"self-convergence order {order:.3f}"
                   f"{'' if good else ' MISS'}")

    # per-mode energy under the free flow, 1000 steps
    cfg = WitnessConfig(Domain.TORUS, 2, 16, s=-1.0, sigma=0.0)
    pair = build_witness(cfg)
    state = witness_state(pair, 68)
    stepper = Stepper(SimConfig(p=2, K=68, sign=0))
    e0 = linear_energy(state)
    for _ in range(1000):
        state = stepper.step(state)
    e1 = linear_energy(state)
    mask = e0 > 0
    drift = float(np.abs(e1[mask] / e0[mask] - 1.0).max())
    good = drift < 1e-12
    ok &= good
    details.append(f"energy drift over 1000 steps: {drift:.2e}"
                   f"{'' if good else ' MISS'}")
    return CriterionResult(7, "simulator-integrity", ok, done(), details)


def criterion_8(out_dir=None) -> CriterionResult:
    """Norm inflation at fixed data size delta=1e-2: the windowed norm
    grows strictly across N at s=-0.6 and stays within 2x of its
    smallest-N value at s=0."""
    done = _timer()
    details, ok = [], True
    N_list = (16, 32, 64, 128)
    grow = inflation_experiment(-0.6, N_list)
    sups = grow.sup_norms()
    good = all(b > a for a, b in zip(sups, sups[1:]))
    ok &= good
    details.append("s=-0.6 sup norms: "
                   + ", ".join(f"{x:.3e}" for x in sups)
                   + ("" if good else " NOT INCREASING"))
    flat = inflation_experiment(0.0, N_list)
    sups0 = flat.sup_norms()
    good = all(x <= 2.0 * sups0[0] for x in sups0)
    ok &= good
    details.append("s=0 sup norms: "
                   + ", ".join(f"{x:.3e}" for x in sups0)
                   + ("" if good else " EXCEEDS 2x BASE"))
    if out_dir is not None:
        payload = {"delta": 1e-2, "runs": [
            {"s": r.s, "rows": [vars(row) for row in r.rows]}
            for r in (grow, flat)]}
        _maybe_write(out_dir, "inflation.json", payload)
    elapsed = done()
    if elapsed >= 300.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s exceeds 300s")
    return CriterionResult(8, "norm-inflation", ok, elapsed, details)


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8}


def run_criteria(numbers=None, out_dir=None, verbose=True):
    """Run the selected criteria (all by default), print one status line
    each, and return the CriterionResult list."""
    numbers = sorted(numbers) if numbers else sorted(CRITERIA)
    unknown = [n for n in numbers if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; choose from "
                         f"{min(CRITERIA)}..{max(CRITERIA)}")
    results = []
    for n in numbers:
        res = CRITERIA[n](out_dir=out_dir)
        results.append(res)
        if verbose:
            print(res.line())
            for d in res.details:
                print(f"    {d}")
    return results
