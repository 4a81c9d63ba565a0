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
This module evaluates K in closed form (with a stable resonant branch),
assembles the profile exactly on the torus and by clipped tensor-product
midpoint quadrature or stratified Monte Carlo on the line, measures its
Sobolev mass on the output window, and builds the N-sweep growth tables
whose log-log slopes are the measured blow-up exponents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceBudgetError
from .spectral import Domain, dispersion
from .witness import WitnessPair, build_witness, data_norm, frequency_set, WitnessConfig
from .resonance import enumerate_representations, ENUMERATION_BUDGET

DEFAULT_HORIZON = 2.0   # default upper limit for measurement times
RESONANCE_TOL = 1e-8


# -- the oscillatory time kernel --------------------------------------------

def _phi1(z):
    """(e^z - 1)/z, series-stabilized near 0. Complex, vectorized."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    direct = (np.exp(zs) - 1.0) / zs
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return np.where(small, series, direct)


def _resonant_kernel(alpha: float, beta, t: float):
    # exact decomposition of the kernel into two exponential averages;
    # stable uniformly in |beta - alpha| (and at alpha = beta = 0)
    b = np.asarray(beta, dtype=float)
    ea = np.exp(1j * alpha * t)
    term1 = ea * t * _phi1(1j * (b - alpha) * t)
    term2 = np.conj(ea) * t * _phi1(1j * (b + alpha) * t)
    return (term1 - term2) / 2j


def time_integral(alpha: float, beta, t: float, *,
                  resonance_tol: float = RESONANCE_TOL):
    """K(alpha, beta, t) = int_0^t sin(alpha(t - tau)) e^{i beta tau} dtau.

    Closed form: real part -alpha (cos(beta t) - cos(alpha t))/(beta^2 -
    alpha^2), imaginary part (-alpha sin(beta t) + beta sin(alpha t)) /
    (beta^2 - alpha^2). When |beta^2 - alpha^2| < resonance_tol *
    max(1, alpha^2) the formula is replaced by its analytic limit.
    Vectorized over beta.
    """
    a = float(alpha)
    if a < 0.0 or t < 0.0:
        raise ValueError("need alpha >= 0 and t >= 0")
    b = np.asarray(beta, dtype=float)
    d = b * b - a * a
    resonant = np.abs(d) < resonance_tol * max(1.0, a * a)
    dd = np.where(resonant, 1.0, d)
    re = -a * (np.cos(b * t) - np.cos(a * t)) / dd
    im = (-a * np.sin(b * t) + b * np.sin(a * t)) / dd
    out = re + 1j * im
    if np.any(resonant):
        out = np.where(resonant, _resonant_kernel(a, b, t), out)
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

    @property
    def hs_lower(self) -> float:
        """L^2 mass on the window; a lower bound for every H^s norm ratio
        the sweeps track (the window sits at |xi| ~ 1)."""
        return window_sobolev_mass(self, 0.0)


def window_sobolev_mass(profile: DerivativeProfile, s: float) -> float:
    """H^s mass of the profile on its window: sqrt(sum w (1+xi^2)^s |v|^2).

    On the torus the window is the single output mode (weight 1); on the
    line the weights are the xi-grid widths.
    """
    if profile.xi.size == 0:
        raise ValueError("empty output window")
    x = profile.xi
    mass = profile.weights * (1.0 + x * x) ** s * np.abs(profile.values) ** 2
    return float(np.sqrt(mass.sum()))


def _validate_eval(pair: WitnessPair, p: int, t: float, T: float,
                   domain: Domain):
    if pair.config.domain != domain:
        raise ValueError(f"witness is not a {domain.value} witness")
    if p != pair.config.p:
        raise ValueError(f"p={p} does not match witness p={pair.config.p}")
    if not (0.0 <= t <= T):
        raise ValueError(f"t={t} outside [0, {T}]")


def _prefactor(pair: WitnessPair, p: int, xi, sign: int):
    cfg = pair.config
    lam = dispersion(xi)
    return (sign * math.factorial(p) * np.asarray(xi) ** 2
            / (float(cfg.N) ** (p * cfg.sigma) * lam))


def flow_derivative_torus(pair: WitnessPair, p: int, t: float, *,
                          sign: int = 1, T: float = DEFAULT_HORIZON,
                          budget: float = ENUMERATION_BUDGET) -> DerivativeProfile:
    """Exact evaluation at the single torus output mode.

    Enumerates every representation of the output mode and sums
    multiplicity * K(alpha, beta, t) in the (deterministic) lexicographic
    multiset order.
    """
    _validate_eval(pair, p, t, T, Domain.TORUS)
    cfg = pair.config
    xi = int(pair.output_window)
    A = frequency_set(cfg)
    reps = enumerate_representations(xi, p, A, budget=budget)
    alpha = dispersion(xi)
    if reps:
        betas = np.array([r.beta() for r in reps])
        mults = np.array([r.multiplicity for r in reps], dtype=float)
        total = complex(np.sum(mults * time_integral(alpha, betas, t)))
    else:
        total = 0.0 + 0.0j
    value = complex(_prefactor(pair, p, float(xi), sign) * total)
    meta = {"n_representations": len(reps), "alpha": alpha,
            "method": "exact-sum", "warnings": []}
    return DerivativeProfile(Domain.TORUS, p, t, np.array([float(xi)]),
                             np.array([value]), np.array([1.0]), meta)


# -- line quadrature ---------------------------------------------------------

def _phase_coeff(v):
    """Contribution of one slot value to beta: -sign(v) lambda(|v|)."""
    v = np.asarray(v, dtype=float)
    return -np.sign(v) * dispersion(v)


def _representative_slots(rep):
    """Signed slot intervals in integration order.

    The widest slot goes last (it becomes the determined one, resolved
    exactly through the clipped innermost variable), narrower slots feed
    the outer midpoint grids. Sorting is stable, so the order is
    deterministic.
    """
    ivs = []
    for sgn, payload in zip(rep.signs, rep.payloads):
        lo, hi = payload
        ivs.append((lo, hi) if sgn > 0 else (-hi, -lo))
    ivs.sort(key=lambda iv: (iv[1] - iv[0], iv[0]))
    return ivs


def _tensor_pattern_integral(slots, xi: float, alpha: float, t: float,
                             n_nodes: int) -> complex:
    """Midpoint tensor integral over one pattern's slot box.

    Integration variables are slots[0:-1]; the last slot is determined as
    xi minus the rest. The innermost variable is clipped exactly to the
    interval where the determined slot stays inside its component, so the
    constraint introduces no indicator discontinuity into the quadrature.
    """
    det_lo, det_hi = slots[-1]
    ivars = slots[:-1]
    outer, (in_lo, in_hi) = ivars[:-1], ivars[-1]
    if outer:
        mids = [np.linspace(lo, hi, n_nodes, endpoint=False)
                + (hi - lo) / (2 * n_nodes) for lo, hi in outer]
        mesh = np.meshgrid(*mids, indexing="ij")
        flat = [m.ravel() for m in mesh]
        S_out = sum(flat)
        P_out = sum(_phase_coeff(f) for f in flat)
        w_out = float(np.prod([(hi - lo) / n_nodes for lo, hi in outer]))
    else:
        S_out = np.zeros(1)
        P_out = np.zeros(1)
        w_out = 1.0
    lo_f = np.maximum(in_lo, xi - S_out - det_hi)
    hi_f = np.minimum(in_hi, xi - S_out - det_lo)
    rows = hi_f > lo_f
    if not np.any(rows):
        return 0.0 + 0.0j
    h = (hi_f[rows] - lo_f[rows]) / n_nodes
    y = lo_f[rows, None] + (np.arange(n_nodes)[None, :] + 0.5) * h[:, None]
    d = xi - (S_out[rows, None] + y)
    beta = P_out[rows, None] + _phase_coeff(y) + _phase_coeff(d)
    kernel = time_integral(alpha, beta, t)
    return complex(np.sum(w_out * h[:, None] * kernel))


def _mc_pattern_integral(slots, xi: float, alpha: float, t: float,
                         n_samples: int, rng) -> tuple:
    """Stratified Monte Carlo over one pattern: uniform on the outer slots,
    exact clipped interval (length-weighted) on the innermost variable.

    Returns (estimate, variance of the estimate).
    """
    det_lo, det_hi = slots[-1]
    ivars = slots[:-1]
    outer, (in_lo, in_hi) = ivars[:-1], ivars[-1]
    S_out = np.zeros(n_samples)
    P_out = np.zeros(n_samples)
    vol_out = 1.0
    for lo, hi in outer:
        u = rng.uniform(lo, hi, size=n_samples)
        S_out += u
        P_out += _phase_coeff(u)
        vol_out *= hi - lo
    lo_f = np.maximum(in_lo, xi - S_out - det_hi)
    hi_f = np.minimum(in_hi, xi - S_out - det_lo)
    length = np.clip(hi_f - lo_f, 0.0, None)
    y = lo_f + rng.uniform(size=n_samples) * length
    d = xi - (S_out + y)
    beta = P_out + _phase_coeff(y) + _phase_coeff(d)
    vals = length * time_integral(alpha, beta, t)
    est = vol_out * complex(vals.mean())
    var = (vol_out ** 2 / n_samples) * float(np.var(vals.real)
                                             + np.var(vals.imag))
    return est, var


def flow_derivative_line(pair: WitnessPair, p: int, t: float, *,
                         sign: int = 1, T: float = DEFAULT_HORIZON,
                         n_xi: int = 33, nodes_per_dim=None,
                         method: str = "auto", mc_samples: int = 8192,
                         seed: int = 0, budget: float = ENUMERATION_BUDGET,
                         doubling_check: bool = False) -> DerivativeProfile:
    """Quadrature evaluation of the profile on the line output window.

    Tensor-product clipped midpoint quadrature (p <= 3: 64 nodes/dim,
    p in {4, 5}: 16 nodes/dim by default) or stratified Monte Carlo with a
    reported 95% half-width (the default for p >= 6). The budget guard
    counts the ordered tensor volume sum(multiplicity * nodes^(p-1)).
    """
    _validate_eval(pair, p, t, T, Domain.LINE)
    cfg = pair.config
    wlo, whi = pair.output_window
    if method == "auto":
        method = "tensor" if p <= 5 else "mc"
    if method not in ("tensor", "mc"):
        raise ValueError(f"unknown method {method!r}")
    nodes = int(nodes_per_dim) if nodes_per_dim else (64 if p <= 3 else 16)

    A = frequency_set(cfg)
    patterns = enumerate_representations((wlo, whi), p, A, budget=budget)
    if method == "tensor":
        volume = sum(r.multiplicity * nodes ** (p - 1) for r in patterns)
        if volume > budget:
            raise ResourceBudgetError(
                f"tensor quadrature volume {volume:.3g} exceeds budget "
                f"{budget:g}; use method='mc'", volume, budget)

    h_xi = (whi - wlo) / n_xi
    xis = wlo + (np.arange(n_xi) + 0.5) * h_xi
    weights = np.full(n_xi, h_xi)
    slot_lists = [_representative_slots(r) for r in patterns]
    mults = [r.multiplicity for r in patterns]
    rng = np.random.default_rng(seed)

    def evaluate(nn):
        vals = np.zeros(n_xi, dtype=complex)
        variances = np.zeros(n_xi)
        for i, xi in enumerate(xis):
            alpha = dispersion(float(xi))
            total = 0.0 + 0.0j
            for slots, mult in zip(slot_lists, mults):
                if method == "tensor":
                    contrib = _tensor_pattern_integral(slots, float(xi),
                                                       alpha, t, nn)
                else:
                    contrib, var = _mc_pattern_integral(slots, float(xi),
                                                        alpha, t,
                                                        mc_samples, rng)
                    variances[i] += (mult ** 2) * var
                total += mult * contrib
            vals[i] = _prefactor(pair, p, float(xi), sign) * total
        return vals, variances

    values, variances = evaluate(nodes)
    meta = {"method": method, "n_patterns": len(patterns),
            "nodes_per_dim": nodes if method == "tensor" else None,
            "mc_samples": mc_samples if method == "mc" else None,
            "warnings": []}
    if method == "mc":
        pref = np.abs(_prefactor(pair, p, xis, sign))
        half = 1.96 * pref * np.sqrt(variances)
        meta["mc_halfwidth_max"] = float(half.max())
        scale = float(np.abs(values).max())
        if scale > 0 and half.max() > 0.05 * scale:
            meta["warnings"].append(
                f"monte-carlo 95% half-width {half.max():.3g} exceeds 5% of "
                f"the profile peak {scale:.3g}")
    if doubling_check and method == "tensor":
        fine, _ = evaluate(2 * nodes)
        scale = float(np.abs(fine).max())
        rel = float(np.abs(values - fine).max() / scale) if scale > 0 else 0.0
        meta["doubling_rel_diff"] = rel
        if rel > 1e-3:
            meta["warnings"].append(
                f"quadrature doubling moved the profile by {rel:.3g} relative")
    return DerivativeProfile(Domain.LINE, p, t, xis, values, weights, meta)


def flow_derivative(pair: WitnessPair, p: int, t: float, **kwargs):
    """Dispatch on the witness domain."""
    if pair.config.domain == Domain.TORUS:
        kwargs.pop("doubling_check", None)
        return flow_derivative_torus(pair, p, t, **kwargs)
    return flow_derivative_line(pair, p, t, **kwargs)


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
                 N_list, *, sign: int = 1, T: float = DEFAULT_HORIZON,
                 **line_kwargs) -> GrowthTable:
    """Sweep N, recording data norm, window derivative mass, and their
    ratio ap_norm / data_norm^p, plus running and final log-log slopes.

    sigma=None defaults to s + 1; sigma <= s is refused, and so is an N
    list with fewer than two distinct values, which has no slope.
    """
    if sigma is not None and sigma <= s:
        raise ValueError(f"sigma={sigma} must exceed s={s}")
    N_list = sorted(int(N) for N in N_list)
    if len(set(N_list)) < 2:
        raise ValueError(f"need at least two distinct N values for a "
                         f"slope, got {N_list}")
    records = []
    logN, logR = [], []
    for N in N_list:
        cfg = WitnessConfig(domain, p, N, s, sigma)
        pair = build_witness(cfg)
        dn = data_norm(pair, s)
        if domain == Domain.TORUS:
            prof = flow_derivative_torus(pair, p, t, sign=sign, T=T)
        else:
            prof = flow_derivative_line(pair, p, t, sign=sign, T=T,
                                        **line_kwargs)
        an = window_sobolev_mass(prof, s)
        ratio = an / dn ** p
        logN.append(math.log(N))
        logR.append(math.log(ratio) if ratio > 0 else float("-inf"))
        if len(logN) >= 2:
            slope_run = float(np.polyfit(logN, logR, 1)[0])
        else:
            slope_run = float("nan")
        records.append(GrowthRecord(N, dn, an, ratio, slope_run))
    return GrowthTable(p, domain, s,
                       sigma if sigma is not None else s + 1.0, t, records,
                       records[-1].slope_running, predicted_growth_slope(p, s))
