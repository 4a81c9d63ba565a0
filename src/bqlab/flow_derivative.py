"""The p-th derivative of the data-to-solution map, evaluated on witnesses.

Differentiating the Duhamel expansion of u_tt - u_xx + u_xxxx +- (u^p)_xx
p times at zero data, along the diagonal direction given by a witness pair,
leaves a single explicit term: on the output frequency xi it is

    sign * p! * xi^2 / (N^{p sigma} lambda(xi)) * SUM over representations
        (multiplicity) * K(lambda(xi), beta, t),

where the sum runs over decompositions xi = eps_1 a_1 + ... + eps_p a_p
with a_j in the witness set (an exact finite sum on the torus, an integral
over the slot variables on the line), beta = -sum eps_j lambda(a_j), and

    K(alpha, beta, t) = int_0^t sin(alpha (t - tau)) e^{i beta tau} d tau.

The one-sided-wave structure of the witness is what collapses each slot to
the pure phase e^{-i eps lambda(a) tau}, making K the only time dependence.
This module evaluates K by one half-angle formula that holds through the
resonance |beta| = lambda(xi), with the sine and cosine of the half angle
taken from a single tangent of its half. It assembles the profile exactly
on the torus and by tensor-product midpoint quadrature or plain Monte Carlo
(innermost variable clipped exactly in both) on the line, at resolutions
that are module constants, not options (LINE_XI_NODES, LINE_NODES,
LINE_MC_SAMPLES). The tensor rule folds the slot symmetries of its grid:
the integrand sees the outer slots only through their sum and phase sum,
and is even under swapping the inner and determined slots when they share
an interval, so each distinct node is evaluated once with its multiplicity.
It measures the profile's Sobolev mass on the output window and builds the
N-sweep growth tables whose log-log slopes are the measured blow-up
exponents.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import Domain, dispersion
from .witness import (WitnessConfig, WitnessPair, build_witness,
                      checked_n_list, data_norm, frequency_set)
from .resonance import enumerate_representations

DEFAULT_HORIZON = 2.0   # upper limit for measurement times
KERNEL_BLOCK = 8192     # betas per block: the kernel's temporaries stay cached
LINE_XI_NODES = 33      # midpoints of the line output window
LINE_NODES = {2: 64, 3: 64, 4: 16, 5: 16}   # tensor nodes per dim, by p
LINE_MC_SAMPLES = 8192  # Monte Carlo draws per (xi, pattern), unlisted p


# -- the oscillatory time kernel --------------------------------------------

def time_integral(alpha: float, beta, t: float):
    """K(alpha, beta, t) = int_0^t sin(alpha(t - tau)) e^{i beta tau} dtau.

    One half-angle formula for every beta: with X = (|beta| + alpha) t/2,
    Y = (|beta| - alpha) t/2, u = sin X/(|beta| + alpha) = (t/2) sinc X and
    w = sin Y/(|beta| - alpha) = (t/2) sinc Y (t/2 at resonance, Y = 0),
        K = 2 alpha u w + i sign(beta) (u cos Y - w cos X).
    sin Y and cos Y come from one tangent h = tan(Y/2) as 2h/(1 + h^2) and
    (1 - h^2)/(1 + h^2); no double lies within 4e-19 of a pole of tan, so
    |h| < 3e18 and h^2 stays finite. sin X and cos X follow from them and
    alpha t by angle addition. Vectorized over beta in blocks of
    KERNEL_BLOCK; scalars in, scalar out.
    """
    a = float(alpha)
    if not (0.0 <= a < math.inf and 0.0 <= t < math.inf):   # nan fails too
        raise ValueError(f"need finite alpha >= 0 and t >= 0, got "
                         f"alpha={alpha} and t={t}")
    b = np.asarray(beta, dtype=float)
    out = np.zeros(b.shape, dtype=complex)
    if a * t > 0.0:
        sin_at, cos_at = math.sin(a * t), math.cos(a * t)
        flat_b, flat_k = b.reshape(-1), out.reshape(-1)
        for i in range(0, flat_b.size, KERNEL_BLOCK):
            blk = slice(i, i + KERNEL_BLOCK)
            # in place, each sum and product in the order of the formula
            minus = np.abs(flat_b[blk])
            plus = minus + a
            minus -= a
            y = minus * (0.5 * t)
            y *= 0.5
            h = np.tan(y, out=y)     # tan(Y/2)
            h2 = h * h
            tmp = h2 + 1.0
            cos_y = np.subtract(1.0, h2, out=h2)
            cos_y /= tmp
            sin_y = np.add(h, h, out=h)
            sin_y /= tmp
            u = sin_y * cos_at
            np.multiply(cos_y, sin_at, out=tmp)
            u += tmp
            u /= plus
            cos_x = np.multiply(cos_y, cos_at, out=plus)
            np.multiply(sin_y, sin_at, out=tmp)
            cos_x -= tmp
            w = tmp
            w.fill(0.5 * t)
            np.divide(sin_y, minus, out=w, where=minus != 0.0)
            np.multiply(u, 2.0 * a, out=sin_y)
            np.multiply(sin_y, w, out=flat_k.real[blk])
            u *= cos_y
            w *= cos_x
            u -= w
            np.multiply(np.sign(flat_b[blk], out=sin_y), u,
                        out=flat_k.imag[blk])
    return complex(out) if out.ndim == 0 else out


# -- evaluated profiles ------------------------------------------------------

@dataclass
class DerivativeProfile:
    """The p-th derivative's spectral profile on the output window."""

    domain: Domain
    p: int
    t: float
    xi: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    meta: dict


def window_sobolev_mass(profile: DerivativeProfile, s: float) -> float:
    """H^s mass of the profile on its window: sqrt(sum w (1+xi^2)^s |v|^2).

    On the torus the window is the single output mode (weight 1); on the
    line the weights are the xi-grid widths. A mass that overflows (a
    profile above about 1e154) is refused.
    """
    if profile.xi.size == 0:
        raise ValueError("empty output window")
    x = profile.xi
    with np.errstate(over="ignore"):   # refused below
        mass = (profile.weights * (1.0 + x * x) ** s
                * np.abs(profile.values) ** 2)
        total = float(np.sqrt(mass.sum()))
    if not math.isfinite(total):
        raise ValueError(f"H^{s:g} window mass of the p={profile.p} profile "
                         f"at t={profile.t:g} is not finite")
    return total


def _validate_eval(pair: WitnessPair, p: int, t: float, domain: Domain,
                   sign: int):
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if pair.config.domain != domain:
        raise ValueError(f"witness is not a {domain.value} witness")
    if p != pair.config.p:
        raise ValueError(f"p={p} does not match witness p={pair.config.p}")
    if not (0.0 <= t <= DEFAULT_HORIZON):
        raise ValueError(f"t={t} outside [0, {DEFAULT_HORIZON}]")


def _prefactors(pair: WitnessPair, p: int, xi, sign: int) -> np.ndarray:
    """sign p! xi^2 / (N^(p sigma) lambda(xi)) at each output node xi.

    Formed before any enumeration, so that a p whose p! (p > 170) or
    whose product with xi^2 overflows is refused at once, naming p and N.
    """
    cfg = pair.config
    try:
        fact = float(sign * math.factorial(p))
    except OverflowError:
        fact = sign * math.inf
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        pref = (fact * xi ** 2
                / (float(cfg.N) ** (p * cfg.sigma) * dispersion(xi)))
    if not np.isfinite(pref).all():
        raise ValueError(f"prefactor p! xi^2 / (N^(p sigma) lambda(xi)) at "
                         f"p={p}, N={cfg.N} is not finite")
    return pref


def _finite_values(prefs, totals, p: int, N: int) -> np.ndarray:
    """prefs * totals, refused naming p and N when a product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        values = prefs * totals
    if not np.isfinite(values).all():
        raise ValueError(f"prefactor x representation sum at p={p}, N={N} "
                         f"is not finite")
    return values


def flow_derivative_torus(pair: WitnessPair, p: int, t: float, *,
                          sign: int = 1) -> DerivativeProfile:
    """Exact evaluation at the single torus output mode.

    Enumerates every representation of the output mode and sums
    multiplicity * K(alpha, beta, t) in the (deterministic) lexicographic
    multiset order.
    """
    _validate_eval(pair, p, t, Domain.TORUS, sign)
    cfg = pair.config
    xi = int(pair.output_window)
    pref = _prefactors(pair, p, [float(xi)], sign)[0]
    A = frequency_set(cfg)
    reps = enumerate_representations(xi, p, A)
    alpha = dispersion(xi)
    betas = np.array([r.beta() for r in reps], dtype=float)
    mults = np.array([r.multiplicity for r in reps], dtype=float)
    total = complex(np.sum(mults * time_integral(alpha, betas, t)))
    value = _finite_values(pref, np.array([total]), p, cfg.N)
    meta = {"n_representations": len(reps), "alpha": alpha,
            "method": "exact-sum", "warnings": []}
    return DerivativeProfile(Domain.TORUS, p, t, np.array([float(xi)]),
                             value, np.array([1.0]), meta)


# -- line quadrature ---------------------------------------------------------

def _signed_dispersion(v):
    """sign(v) lambda(v), formed as v sqrt(1 + v^2) with one temporary.

    A slot value v contributes minus this to beta.
    """
    out = v * v
    out += 1.0
    np.sqrt(out, out=out)
    out *= v
    return out


def _representative_slots(rep):
    """Signed slot intervals in integration order.

    The widest slot goes last (it becomes the determined one, resolved
    exactly through the clipped innermost variable), narrower slots feed
    the outer midpoint grids. Sorting is stable, so the order is
    deterministic.
    """
    ivs = [(lo, hi) if sgn > 0 else (-hi, -lo) for sgn, (lo, hi) in rep.slots]
    ivs.sort(key=lambda iv: (iv[1] - iv[0], iv[0]))
    return ivs


def _outer_sums(pts, n: int):
    """Per row, the sum of the outer slot values v and of their phase
    coefficients -sign(v) lambda(v).

    Both sums start from n zeros (n = 1 broadcasts over a tensor mesh), so
    with no outer slot they are n rows of zeros.
    """
    S_out = np.zeros(n)
    P_out = np.zeros(n)
    for v in pts:
        S_out = S_out + v
        P_out = P_out - _signed_dispersion(v)
    return S_out, P_out


def _multinomial(tup) -> int:
    """Orderings of a sorted tuple: len! / prod(run length!)."""
    return math.factorial(len(tup)) // math.prod(
        math.factorial(len(list(g))) for _, g in itertools.groupby(tup))


def _tensor_rule(slots, nn: int):
    """The clipped midpoint rule of one pattern with nn nodes per
    dimension, each distinct node of its grid evaluated once.

    The integrand sees the outer slots (slots[0:-2]) only through S_out and
    P_out, so on a run of r equal outer intervals (adjacent, as
    _representative_slots sorts them) only the non-decreasing index tuples
    are kept, each weighted by its number of orderings; the runs combine
    as a Cartesian product. When the inner and determined slots share one
    interval, the clipped inner interval is symmetric about (xi - S_out)/2
    and beta is even about it, so only the first ceil(nn/2) inner
    midpoints are evaluated, at twice the weight; the centre node of an
    odd nn counts once. The inner cell width stays (clipped length)/nn.

    Returns (S_out, P_out, inner offsets of shape (1, evaluated midpoints),
    the weight of each evaluated node: cell volume x orderings x its inner
    weight 2 or 1, of shape (rows, evaluated midpoints)).
    """
    outer = slots[:-2]
    mids = [np.linspace(lo, hi, nn, endpoint=False) + (hi - lo) / (2 * nn)
            for lo, hi in outer]
    index = np.zeros((1, 0), dtype=int)
    count = np.ones(1)
    for _, run in itertools.groupby(outer):
        tuples = list(itertools.combinations_with_replacement(
            range(nn), len(list(run))))
        index = np.hstack([np.repeat(index, len(tuples), axis=0),
                           np.tile(tuples, (len(index), 1))])
        count = np.outer(count, [_multinomial(u) for u in tuples]).ravel()
    pts = [m[index[:, j]] for j, m in enumerate(mids)]
    S_out, P_out = _outer_sums(pts, 1)
    weight = math.prod((hi - lo) / nn for lo, hi in outer) * count
    mirror = slots[-2] == slots[-1]
    inner = np.ones((nn + 1) // 2 if mirror else nn)
    if mirror:
        inner[:nn // 2] = 2.0
    offsets = (np.arange(len(inner)) + 0.5)[None, :]
    return S_out, P_out, offsets, np.outer(weight, inner)


def _pattern_integrand(slots, xi: float, alpha: float, t: float, S_out,
                       P_out, offsets, m: int, weight):
    """Clipped-innermost integrand of one pattern over its slot box.

    Integration variables are slots[0:-1]; the last slot is determined as
    xi minus the rest. S_out and P_out hold, per row, the sum of the outer
    slot values (slots[0:-2]) and of their phase coefficients (see
    _outer_sums); the innermost variable is clipped exactly to the
    interval where the determined slot stays inside its component, so the
    constraint introduces no indicator discontinuity. Each row places its
    inner points at lo + offsets * h, h = clipped length / m, where
    offsets has shape (rows or 1, at most m). weight is a float or the
    weight of each inner point, of shape (rows, offsets.shape[1]).

    Returns (indices of the non-empty rows, weight * h * K at their inner
    points); empty rows contribute nothing.
    """
    det_lo, det_hi = slots[-1]
    in_lo, in_hi = slots[-2]
    rest = xi - S_out
    lo_f = np.maximum(in_lo, rest - det_hi)
    hi_f = np.minimum(in_hi, rest - det_lo)
    idx = np.flatnonzero(hi_f > lo_f)
    lo_f = lo_f[idx]
    h = (hi_f[idx] - lo_f) / m
    if len(offsets) > 1:         # per-row offsets; a single row broadcasts
        offsets = offsets[idx]
    y = offsets * h[:, None]
    y += lo_f[:, None]
    d = S_out[idx, None] + y
    np.subtract(xi, d, out=d)
    beta = np.subtract(P_out[idx, None], _signed_dispersion(y), out=y)
    beta -= _signed_dispersion(d)
    f = time_integral(alpha, beta, t)
    if np.ndim(weight):
        weight = weight[idx]
    f *= weight * h[:, None]
    return idx, f


def flow_derivative_line(pair: WitnessPair, p: int, t: float, *,
                         sign: int = 1, seed: int = 0) -> DerivativeProfile:
    """Quadrature evaluation of the profile on the line output window, at
    LINE_XI_NODES midpoints of the window.

    Tensor-product clipped midpoint quadrature with LINE_NODES[p] nodes per
    dimension, or, for a p that LINE_NODES does not list, plain Monte Carlo
    with LINE_MC_SAMPLES draws and a reported 95% half-width. Both evaluate
    the same integrand, its innermost variable clipped exactly: the tensor
    rule on a midpoint mesh of the outer slots with n inner midpoints per
    row, Monte Carlo on plain uniform outer draws (rng.random, no strata)
    with one uniform inner point per row. The tensor rule builds each
    pattern's outer mesh once and reuses it at every xi node, and evaluates
    every distinct node of its grid once with its multiplicity (see
    _tensor_rule): equal outer slots as sorted index tuples, and half the
    inner midpoints when the inner and determined slots share an interval.
    Its nodes and weights are those of the full grid; only the summation
    order differs. Monte Carlo takes one block of uniforms per (xi,
    pattern), xi nodes in order and patterns in turn within each:
    LINE_MC_SAMPLES draws for each outer slot in order, then as many for
    the inner point. meta["n_points"] counts the integrand nodes passed to
    the kernel, summed over xi nodes and patterns.
    """
    _validate_eval(pair, p, t, Domain.LINE, sign)
    cfg = pair.config
    wlo, whi = pair.output_window
    nodes = LINE_NODES.get(p)
    method = "mc" if nodes is None else "tensor"
    n_xi, mc_samples = LINE_XI_NODES, LINE_MC_SAMPLES

    h_xi = (whi - wlo) / n_xi
    xis = wlo + (np.arange(n_xi) + 0.5) * h_xi
    prefs = _prefactors(pair, p, xis, sign)
    A = frequency_set(cfg)
    patterns = enumerate_representations((wlo, whi), p, A)
    weights = np.full(n_xi, h_xi)
    slot_lists = [_representative_slots(r) for r in patterns]
    mults = [r.multiplicity for r in patterns]
    rng = np.random.default_rng(seed)

    totals = np.zeros(n_xi, dtype=complex)
    variances = np.zeros(n_xi)
    n_points = 0
    if method == "tensor":   # the outer mesh does not depend on xi
        rules = [_tensor_rule(slots, nodes) for slots in slot_lists]
    for i, xi in enumerate(xis.tolist()):
        alpha = dispersion(xi)
        total = 0.0 + 0.0j
        for k, (slots, mult) in enumerate(zip(slot_lists, mults)):
            if method == "tensor":
                S_out, P_out, offsets, weight = rules[k]
                _, f = _pattern_integrand(slots, xi, alpha, t, S_out,
                                          P_out, offsets, nodes, weight)
                n_points += f.size
                total += mult * complex(np.sum(f))
                continue
            outer = slots[:-2]
            draws = rng.random((len(outer) + 1, mc_samples))
            for (lo, hi), r in zip(outer, draws):
                r *= hi - lo        # lo + (hi - lo) u, as rng.uniform
                r += lo
            S_out, P_out = _outer_sums(draws[:-1], mc_samples)
            idx, f = _pattern_integrand(slots, xi, alpha, t, S_out, P_out,
                                        draws[-1][:, None], 1, 1.0)
            n_points += f.size
            # the mean runs over every draw, empty rows as 0
            f_all = np.zeros(mc_samples, dtype=complex)
            f_all[idx] = f[:, 0]
            vol = math.prod(hi - lo for lo, hi in outer)
            variances[i] += mult ** 2 * (
                vol ** 2 / mc_samples
                * float(np.var(f_all.real) + np.var(f_all.imag)))
            total += mult * (vol * complex(f_all.mean()))
        totals[i] = total
    values = _finite_values(prefs, totals, p, cfg.N)

    meta = {"method": method, "n_patterns": len(patterns),
            "nodes_per_dim": nodes,
            "mc_samples": mc_samples if method == "mc" else None,
            "n_points": n_points, "warnings": []}
    if method == "mc":
        half = 1.96 * np.abs(prefs) * np.sqrt(variances)
        meta["mc_halfwidth_max"] = float(half.max())
        scale = float(np.abs(values).max())
        if scale > 0 and half.max() > 0.05 * scale:
            meta["warnings"].append(
                f"monte-carlo 95% half-width {half.max():.3g} exceeds 5% of "
                f"the profile peak {scale:.3g}")
    return DerivativeProfile(Domain.LINE, p, t, xis, values, weights, meta)


# -- growth tables -----------------------------------------------------------

@dataclass
class GrowthRecord:
    N: int
    data_norm: float
    ap_norm: float
    ratio: float
    slope_running: float


@dataclass
class GrowthTable:
    p: int
    domain: Domain
    s: float
    sigma: float
    t: float
    records: list
    slope: float
    predicted_slope: float

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            fh.write("N,data_norm,ap_norm,ratio,slope_running\n")
            for r in self.records:
                fh.write(f"{r.N},{r.data_norm:.12g},{r.ap_norm:.12g},"
                         f"{r.ratio:.12g},{r.slope_running:.12g}\n")


def predicted_growth_slope(p: int, s: float) -> float:
    """Slope of log(ratio) vs log(N): -(ps+1) for even p, -(ps+2) for odd."""
    return -(p * s + 1.0) if p % 2 == 0 else -(p * s + 2.0)


def growth_table(p: int, domain: Domain, s: float, sigma, t: float,
                 N_list, *, sign: int = 1, seed: int = 0) -> GrowthTable:
    """Sweep N, recording data norm, window derivative mass, and their
    ratio ap_norm / data_norm^p, plus running and final log-log slopes.

    sigma follows WitnessConfig's rule (None means s + 1, sigma <= s is
    refused). N_list must pass checked_n_list with at least two N, since
    one N has no slope. seed is the line quadrature's Monte Carlo seed. A data
    norm (refused by build_witness), an N^(p sigma) factor or a ratio that
    is not finite and positive (t = 0, say, or t so small that the profile
    underflows) is refused: the ratio would have no logarithm.
    """
    N_list = checked_n_list(N_list, 2)
    records = []
    logN, logR = [], []
    for N in N_list:
        cfg = WitnessConfig(domain, p, N, s, sigma)
        pair = build_witness(cfg)
        dn = data_norm(pair, s)
        try:
            n_factor = float(N) ** (p * cfg.sigma)
        except OverflowError:
            n_factor = math.inf
        if not 0.0 < n_factor < math.inf:
            raise ValueError(f"N^(p sigma) factor {n_factor} at N={N} is not "
                             f"finite and positive")
        if domain == Domain.TORUS:
            prof = flow_derivative_torus(pair, p, t, sign=sign)
        else:
            prof = flow_derivative_line(pair, p, t, sign=sign, seed=seed)
        an = window_sobolev_mass(prof, s)
        ratio = an / dn ** p
        if not 0.0 < ratio < math.inf:   # no log, so no slope
            raise ValueError(f"growth ratio {ratio} at N={N}, t={t} is not "
                             f"finite and positive")
        logN.append(math.log(N))
        logR.append(math.log(ratio))
        if len(logN) >= 2:
            slope_run = float(np.polyfit(logN, logR, 1)[0])
        else:
            slope_run = float("nan")
        records.append(GrowthRecord(N, dn, an, ratio, slope_run))
    return GrowthTable(p, domain, s, cfg.sigma, t, records,
                       records[-1].slope_running, predicted_growth_slope(p, s))
