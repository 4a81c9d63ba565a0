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
taken from a single tangent of its half, in one pass over the broadcast
array; alpha may be given per row of beta, so that one call serves several
xi nodes. It assembles the profile exactly on the torus and, on the line,
by tensor-product midpoint quadrature for the p that LINE_NODES lists
(p = 2 and 3; at p = 2, with no outer slot, all xi nodes go to the kernel
in one call, and at p = 3 each call takes one xi node, its xi and alpha as
scalars) and by a randomly shifted rank-1 lattice rule for every other p
(innermost variable clipped exactly in both), at resolutions that are
module constants, not options (LINE_XI_NODES, LINE_NODES,
LINE_LATTICE_POINTS, LINE_LATTICE_SHIFTS, and the Student t quantile
LINE_T975 that goes with LINE_LATTICE_SHIFTS). The lattice rule takes its
generating vector component by component (Dick, Kuo & Sloan, Acta
Numerica 22, 2013), folds its points by the tent transform so that a
non-periodic integrand keeps the rule's accuracy (Hickernell, 2002), and
reads its error from the spread of independent random shifts; the outer
slot sums of a whole pool of shifts are formed once per pattern and shared
by every xi node, each node reading its own run of LINE_LATTICE_SHIFTS
shifts from the pool as a view. It measures the profile's Sobolev mass on
the output window and builds the N-sweep growth tables whose log-log
slopes are the measured blow-up exponents. Only the prefactor
N^(-p sigma), the window weights (1 + xi^2)^s and the data norm depend on
s, so growth_tables forms one representation sum per (p, domain, N, t)
and forms every s's values from it; growth_table is its one-s case. The
N of one sweep share nothing, so each N's sum and values are formed once
per N in bins over the usable CPUs, every bin but one in a forked child
(workers.run_bins), when a bin holds at least FORK_MIN_POINTS kernel
points: the line lattice tables (p >= 4) do, and the torus tables and
the line tensor tables of criteria 1-3 (p = 2, 3, six N) run in process.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .spectral import Domain, checked_p, dispersion, hs_norm, write_csv
from .witness import (WitnessConfig, WitnessPair, build_witness,
                      checked_n_list, data_norm, frequency_set)
from .resonance import enumerate_representations
from .workers import run_bins, work_bins

DEFAULT_HORIZON = 2.0   # upper limit for measurement times
LINE_XI_NODES = 33      # midpoints of the line output window
LINE_NODES = {2: 64, 3: 64}   # tensor nodes per dim, by p
LINE_LATTICE_POINTS = 1021   # lattice points per shift (prime), unlisted p
LINE_LATTICE_SHIFTS = 8      # random shifts averaged at each xi node
# Student's t 97.5% quantile at LINE_LATTICE_SHIFTS - 1 = 7 degrees of
# freedom, for the lattice rule's 95% half-width
LINE_T975 = 2.364624251592783
# the least kernel points (_growth_points) that a bin of growth_tables' N
# must hold to get a process of its own: a fork, pipe and pickle round trip
# took 1.8-4.0 ms on a 2-core Xeon, where a kernel point took 33-140 ns in
# the lattice rule (p = 4..9) and 32-38 ns in the p = 3 tensor rule, so
# such a bin sums for at least about 16 ms; criterion 2's p = 3 line table
# (4.1e5 points a bin over two) was no faster split than in process
FORK_MIN_POINTS = 5e5


# -- the oscillatory time kernel --------------------------------------------

def _kernel_formula(b, a, sin_at, cos_at, t: float, out):
    """K at the betas b into the complex array out, of the shape that b and
    a broadcast to. a, sin_at and cos_at are alpha, sin(alpha t) and
    cos(alpha t), floats or arrays, with alpha t > 0."""
    # each sum and product in the order of the formula, in place once an
    # array has the broadcast shape
    minus = np.abs(b)
    plus = minus + a
    minus = minus - a
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
    np.multiply(sin_y, w, out=out.real)
    u *= cos_y
    w *= cos_x
    u -= w
    np.multiply(np.sign(b, out=sin_y), u, out=out.imag)


def time_integral(alpha, beta, t: float):
    """K(alpha, beta, t) = int_0^t sin(alpha(t - tau)) e^{i beta tau} dtau.

    One half-angle formula for every beta: with X = (|beta| + alpha) t/2,
    Y = (|beta| - alpha) t/2, u = sin X/(|beta| + alpha) = (t/2) sinc X and
    w = sin Y/(|beta| - alpha) = (t/2) sinc Y (t/2 at resonance, Y = 0),
        K = 2 alpha u w + i sign(beta) (u cos Y - w cos X).
    sin Y and cos Y come from one tangent h = tan(Y/2) as 2h/(1 + h^2) and
    (1 - h^2)/(1 + h^2); no double lies within 4e-19 of a pole of tan, so
    |h| < 3e18 and h^2 stays finite. sin X and cos X follow from them and
    alpha t by angle addition.

    alpha is a scalar or an array that broadcasts against beta, such as
    one value per row; sin and cos of alpha t are taken once per distinct
    value, and K is 0 where alpha t is. The formula runs in one pass over
    the whole broadcast array, with no internal blocks, so a call's
    temporaries scale with its broadcast size. Scalars in, scalar out.
    """
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    if a.ndim == 0:      # no reductions or broadcast for a scalar
        lo = hi = float(a)
        shape = b.shape
    else:
        lo, hi = a.min(initial=math.inf), a.max(initial=0.0)
        shape = np.broadcast_shapes(a.shape, b.shape)
    if not (0.0 <= lo and hi < math.inf and 0.0 <= t < math.inf):   # or nan
        raise ValueError(f"need finite alpha >= 0 and t >= 0, got alpha="
                         f"{hi if 0.0 <= lo else lo} and t={t}")
    out = np.zeros(shape, dtype=complex)
    if not (out.size and hi * t > 0.0):   # K is 0 where alpha t is
        return complex(out) if out.ndim == 0 else out
    if lo == hi:     # one alpha, as a float: cheaper in the formula
        a = float(lo)
        sin_at, cos_at = math.sin(a * t), math.cos(a * t)
    else:
        at = a * t
        values, run = np.unique(at, return_inverse=True)
        sin_at, cos_at = np.array([(math.sin(x), math.cos(x)) for x in
                                   values.tolist()]).T[:, run.reshape(a.shape)]
        if lo * t == 0.0:    # alpha = 1 where alpha t = 0 keeps 0/0 out of
            a = np.where(at == 0.0, 1.0, a)    # the formula; zeroed below
    # a 0-d out goes through as a one-entry view, which in-place ops take
    _kernel_formula(np.atleast_1d(b), a, sin_at, cos_at, t, np.atleast_1d(out))
    if lo * t == 0.0:    # some alpha t is 0, so lo < hi and at is set
        np.copyto(out, 0.0, where=at == 0.0)
    return complex(out) if out.ndim == 0 else out


# -- evaluated profiles ------------------------------------------------------

@dataclass
class DerivativeProfile:
    """The p-th derivative's spectral profile on the output window.

    values are the prefactors at xi times the representation sums in sums,
    one per node, or for the lattice rule the mean of its per-shift sums
    of shape (xi nodes, q). The sums do not depend on s or sigma, so
    _profile_values forms the values of a witness of the same p, domain, N
    and t at another s from them and that witness's prefactors.
    """

    domain: Domain
    p: int
    t: float
    xi: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    meta: dict
    sums: np.ndarray = field(default=None, repr=False, compare=False)


def window_sobolev_mass(profile: DerivativeProfile, s: float) -> float:
    """spectral.hs_norm, unscaled, of the profile on its window: the output
    mode on the torus (weight 1), the xi grid with its widths on the line.
    A mass that overflows (a profile above about 1e154) is refused."""
    if profile.xi.size == 0:
        raise ValueError("empty output window")
    with np.errstate(over="ignore"):   # refused below
        total = hs_norm(profile.xi, profile.values, profile.weights, s)
    if not math.isfinite(total):
        raise ValueError(f"H^{s:g} window mass of the p={profile.p} profile "
                         f"at t={profile.t:g} is not finite")
    return total


def _validate_eval(pair: WitnessPair, p: int, t: float, domain: Domain,
                   sign: int) -> int:
    """p as an int, once the evaluation's arguments are checked."""
    p = checked_p(p)
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if pair.config.domain != domain:
        raise ValueError(f"witness is not a {domain.value} witness")
    if p != pair.config.p:
        raise ValueError(f"p={p} does not match witness p={pair.config.p}")
    if not (0.0 <= t <= DEFAULT_HORIZON):
        raise ValueError(f"t={t} outside [0, {DEFAULT_HORIZON}]")
    return p


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


def _profile_values(prefs, sums, p: int, N: int):
    """The values prefs * totals of a profile's sums, refused naming p and
    N when a product overflows, and the error estimates they carry.

    sums holds one total per node (exact sum, tensor rule) or the lattice
    rule's (xi nodes, q) per-shift sums, whose mean is the total and whose
    spread gives "err_est" and "mc_halfwidth_max" (with LINE_T975; see
    flow_derivative_line); returns (values, dict of error estimates).
    """
    totals = sums if sums.ndim == 1 else sums.mean(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        values = prefs * totals
    if not np.isfinite(values).all():
        raise ValueError(f"prefactor x representation sum at p={p}, N={N} "
                         f"is not finite")
    if sums.ndim == 1:
        return values, {}
    q = sums.shape[1]
    err = np.abs(prefs) * np.sqrt(
        (sums.real.var(axis=1, ddof=1) + sums.imag.var(axis=1, ddof=1)) / q)
    peak = float(np.abs(values).max())
    return values, {"err_est": float(err.max()) / peak if peak > 0 else 0.0,
                    "mc_halfwidth_max": LINE_T975 * float(err.max())}


def _output_nodes(pair: WitnessPair):
    """The nodes xi of a profile and their weights: the torus output mode
    with weight 1, or the LINE_XI_NODES midpoints of the line output
    window with its grid width."""
    window = pair.output_window
    if pair.config.domain == Domain.TORUS:
        return np.array([float(window)]), np.array([1.0])
    wlo, whi = window
    n_xi = LINE_XI_NODES
    h_xi = (whi - wlo) / n_xi
    return wlo + (np.arange(n_xi) + 0.5) * h_xi, np.full(n_xi, h_xi)


def flow_derivative_torus(pair: WitnessPair, p: int, t: float, *,
                          sign: int = 1) -> DerivativeProfile:
    """Exact evaluation at the single torus output mode.

    Enumerates every representation of the output mode and sums
    multiplicity * K(alpha, beta, t) in the (deterministic) lexicographic
    multiset order.
    """
    p = _validate_eval(pair, p, t, Domain.TORUS, sign)
    cfg = pair.config
    xis, weights = _output_nodes(pair)
    prefs = _prefactors(pair, p, xis, sign)
    xi = int(pair.output_window)
    A = frequency_set(cfg)
    reps = enumerate_representations(xi, p, A)
    alpha = dispersion(xi)
    betas = np.array([r.beta() for r in reps], dtype=float)
    mults = np.array([r.multiplicity for r in reps], dtype=float)
    sums = np.array([complex(np.sum(mults * time_integral(alpha, betas, t)))])
    values, _ = _profile_values(prefs, sums, p, cfg.N)
    meta = {"n_representations": len(reps), "alpha": alpha,
            "method": "exact-sum", "warnings": []}
    return DerivativeProfile(Domain.TORUS, p, t, xis, values, weights, meta,
                             sums)


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


def _outer_sums(pts, shape):
    """Per point, the sum of the outer slot values v and of their phase
    coefficients -sign(v) lambda(v).

    pts yields one array of the given shape per outer slot, added in place
    to sums that start from zeros, so with no outer slot they are zeros.
    """
    S_out = np.zeros(shape)
    P_out = np.zeros(shape)
    for v in pts:
        S_out += v
        P_out -= _signed_dispersion(v)
    return S_out, P_out


def _pattern_integrand(slots, xi, alpha, t: float, S_out, P_out, offsets,
                       weight: float):
    """Clipped-innermost integrand of one pattern over its slot box.

    Integration variables are slots[0:-1]; the last slot is determined as
    xi minus the rest. xi and its alpha = lambda(xi) are scalars or hold
    one value per row. S_out and P_out hold, per row, the sum of the outer
    slot values (slots[0:-2]) and of their phase coefficients (see
    _outer_sums); the innermost variable is clipped exactly to the
    interval where the determined slot stays inside its component, so the
    constraint introduces no indicator discontinuity. Each row places its
    inner points at lo + offsets * h, h = clipped length / m: offsets is
    either a (1, m) row that every row shares, or a 1-D array of one
    offset per row (m = 1), and then every array stays 1-D.

    Returns (indices of the non-empty rows, weight * h * K at their inner
    points, of shape (non-empty rows, m), or (non-empty rows,) for 1-D
    offsets); empty rows contribute nothing.
    """
    det_lo, det_hi = slots[-1]
    in_lo, in_hi = slots[-2]
    rest = xi - S_out
    lo_f = np.maximum(in_lo, rest - det_hi)
    hi_f = np.minimum(in_hi, rest - det_lo)
    idx = np.flatnonzero(hi_f > lo_f)
    if offsets.ndim == 1:    # one inner point per row, at its own offset
        offsets, m, col = offsets.take(idx), 1, lambda v: v
    else:
        m, col = offsets.shape[1], lambda v: v[:, None]
    if isinstance(xi, np.ndarray):
        xi, alpha = col(xi.take(idx)), col(alpha.take(idx))
    lo_f = lo_f.take(idx)
    h = col((hi_f.take(idx) - lo_f) / m)
    y = offsets * h
    y += col(lo_f)
    d = col(S_out.take(idx)) + y
    np.subtract(xi, d, out=d)
    beta = np.subtract(col(P_out.take(idx)), _signed_dispersion(y), out=y)
    beta -= _signed_dispersion(d)
    f = time_integral(alpha, beta, t)
    f *= weight * h
    return idx, f


@lru_cache(maxsize=None)
def _generating_vector(n: int, d: int) -> tuple:
    """Generating vector z of an n-point rank-1 lattice rule in d
    dimensions, built component by component (CBC).

    z_1 = 1; each next z_j minimises the shift-averaged worst-case error
    P_2 = -1 + (1/n) sum_k prod_i (1 + gamma_i 2 pi^2 B_2({k z_i / n}))
    with product weights gamma_i = 1/i^2, B_2(x) = x^2 - x + 1/6, over the
    candidates 1 <= c <= n/2 coprime to n (c and n - c give the same
    error); a tie goes to the smallest c. The candidates' table
    omega[k c mod n] is gathered once, and each component is scored by one
    product with it. Cached per (n, d).
    """
    k = np.arange(n)
    omega = 2.0 * math.pi ** 2 * ((k / n) ** 2 - k / n + 1.0 / 6.0)
    cands = np.array([c for c in range(1, n // 2 + 1) if math.gcd(c, n) == 1])
    table = np.empty((len(cands), n))
    for row, c in zip(table, cands):   # no index array beside the table
        np.take(omega, k * c % n, out=row)
    z = [1]
    prod = 1.0 + omega
    for j in range(2, d + 1):
        # the error is affine in sum_k prod_k B_2({k c / n}): minimise that
        z.append(int(cands[np.argmin(table @ prod)]))
        prod *= 1.0 + omega[k * z[-1] % n] / j ** 2
    return tuple(z)


def _lattice_column(n: int, z: int, shifts):
    """One coordinate of the tent-transformed shifted lattice: for each
    shift (a row) and k = 0..n-1, phi({k z / n + shift}) with the tent
    phi(x) = 1 - |2x - 1|, which keeps the uniform measure on [0, 1]."""
    x = np.add.outer(shifts, np.arange(n) * z % n / n)
    x -= np.floor(x)     # exact on [0, 2), as x %= 1.0 is
    x *= 2.0
    x -= 1.0
    np.abs(x, out=x)
    return np.subtract(1.0, x, out=x)


def _tensor_totals(patterns, p: int, nodes: int, xi_alpha, t: float):
    """Representation sum of the clipped midpoint rule with nodes points
    per dimension at each xi node, and the number of kernel points.

    Each pattern's grid of outer midpoints, its cell volume and the nodes
    inner midpoints per row are built once for every xi node. A pattern
    with no outer slot (p = 2) has one row per xi node, and all the nodes
    go to the integrand and the kernel in one call. Otherwise (p = 3) each
    call takes one xi node, its xi and alpha as scalars: its nodes^(p - 1)
    points already amortise a call, and a call of two nodes outgrows the
    allocator's reuse and page-faults on every call.
    """
    n_xi = len(xi_alpha)
    totals = np.zeros(n_xi, dtype=complex)
    offsets = (np.arange(nodes) + 0.5)[None, :]
    xis, alphas = np.array(xi_alpha).T
    n_points = 0
    for rep in patterns:
        slots = _representative_slots(rep)
        outer = slots[:-2]
        volume = math.prod((hi - lo) / nodes for lo, hi in outer)
        if not outer:      # one row per xi node, every node in one call
            idx, f = _pattern_integrand(slots, xis, alphas, t,
                                        np.zeros(n_xi), np.zeros(n_xi),
                                        offsets, volume)
            n_points += f.size
            for i, row in zip(idx.tolist(), f):
                totals[i] += rep.multiplicity * complex(np.sum(row))
            continue
        mids = [np.linspace(lo, hi, nodes, endpoint=False)
                + (hi - lo) / (2 * nodes) for lo, hi in outer]
        S_out, P_out = _outer_sums(
            (m.ravel() for m in np.meshgrid(*mids, indexing="ij")),
            nodes ** (p - 2))
        for i, (xi, alpha) in enumerate(xi_alpha):
            _, f = _pattern_integrand(slots, xi, alpha, t, S_out, P_out,
                                      offsets, volume)
            n_points += f.size
            totals[i] += rep.multiplicity * complex(np.sum(f))
    return totals, n_points


def _lattice_totals(patterns, p: int, xi_alpha, t: float, seed: int):
    """Representation sum of the lattice rule at each xi node for each of
    its q = LINE_LATTICE_SHIFTS shifts, shape (xi nodes, q), and the
    number of kernel points.

    n = LINE_LATTICE_POINTS points in the p - 1 slot variables (outer
    slots in slot order, the inner offset last) on the vector of
    _generating_vector, tent-transformed (see _lattice_column). One pool
    of S = max(xi nodes, q) shifts is drawn as rng.random((S, p - 1));
    each pattern forms the outer sums of all S x n pool points once, and
    xi node i integrates on the q consecutive shifts i, ..., i + q - 1
    (mod S), so each node sees q distinct independent shifts. The pool's
    arrays are extended by their first q - 1 shifts, so that a node's
    shifts are one contiguous run of q n points, read as a view. Each
    shift's estimate is the mean over its n points (empty rows as 0)
    times the outer slot volume.
    """
    n, q, n_xi = LINE_LATTICE_POINTS, LINE_LATTICE_SHIFTS, len(xi_alpha)
    z = _generating_vector(n, p - 1)
    shifts = np.random.default_rng(seed).random((max(n_xi, q), p - 1))

    def wrapped(pool):    # rows 0..S-1, then 0..q-2 again, flattened
        return np.concatenate([pool, pool[:q - 1]]).ravel()

    inner = wrapped(_lattice_column(n, z[-1], shifts[:, -1]))
    per_shift = np.zeros((n_xi, q), dtype=complex)
    f_all = np.empty(q * n, dtype=complex)
    n_points = 0
    for rep in patterns:
        slots = _representative_slots(rep)
        outer = slots[:-2]
        S_out, P_out = map(wrapped, _outer_sums(
            (lo + (hi - lo) * _lattice_column(n, z[j], shifts[:, j])
             for j, (lo, hi) in enumerate(outer)), (len(shifts), n)))
        scale = rep.multiplicity * math.prod(hi - lo for lo, hi in outer)
        for i, (xi, alpha) in enumerate(xi_alpha):
            run = slice(i * n, (i + q) * n)
            idx, f = _pattern_integrand(slots, xi, alpha, t, S_out[run],
                                        P_out[run], inner[run], 1.0)
            n_points += f.size
            f_all.fill(0.0)
            f_all[idx] = f
            per_shift[i] += scale * f_all.reshape(q, n).mean(axis=1)
    return per_shift, n_points


def flow_derivative_line(pair: WitnessPair, p: int, t: float, *,
                         sign: int = 1, seed: int = 0) -> DerivativeProfile:
    """Quadrature evaluation of the profile on the line output window, at
    LINE_XI_NODES midpoints of the window.

    Both rules evaluate the same integrand, its innermost variable clipped
    exactly (see _pattern_integrand), and build each pattern's outer
    points once for every xi node. For a p that LINE_NODES lists (2 and
    3): tensor-product clipped midpoint quadrature with LINE_NODES[p]
    nodes per dimension, on a midpoint mesh of the outer slots with that
    many inner midpoints per row (see _tensor_totals). For every other p:
    a randomly shifted rank-1 lattice rule whose shifts are drawn from
    seed (see _lattice_totals); the value at xi is the mean of its
    q = LINE_LATTICE_SHIFTS shift estimates.

    meta: "method" ("tensor" or "lattice"), "n_patterns", "nodes_per_dim"
    (tensor) and "n_points", the integrand nodes passed to the kernel,
    summed over xi nodes and patterns. A lattice profile adds
    "mc_samples" = LINE_LATTICE_POINTS x q, the points behind each
    (xi, pattern) estimate; "err_est", the largest standard error of the q
    shift estimates at an xi node, relative to the profile peak; and
    "mc_halfwidth_max", the largest 95% half-width, that standard error
    times LINE_T975, the Student t quantile with q - 1 = 7 degrees of
    freedom.
    """
    p = _validate_eval(pair, p, t, Domain.LINE, sign)
    cfg = pair.config
    xis, weights = _output_nodes(pair)
    prefs = _prefactors(pair, p, xis, sign)
    nodes = LINE_NODES.get(p)
    A = frequency_set(cfg)
    patterns = enumerate_representations(pair.output_window, p, A)
    xi_alpha = [(xi, dispersion(xi)) for xi in xis.tolist()]

    if nodes is None:
        sums, n_points = _lattice_totals(patterns, p, xi_alpha, t, seed)
    else:
        sums, n_points = _tensor_totals(patterns, p, nodes, xi_alpha, t)
    values, errors = _profile_values(prefs, sums, p, cfg.N)

    meta = {"method": "lattice" if nodes is None else "tensor",
            "n_patterns": len(patterns), "nodes_per_dim": nodes,
            "mc_samples": None, "n_points": n_points, "warnings": []}
    if nodes is None:
        meta.update(mc_samples=LINE_LATTICE_POINTS * sums.shape[1], **errors)
    return DerivativeProfile(Domain.LINE, p, t, xis, values, weights, meta,
                             sums)


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
        write_csv(path, [f.name for f in fields(GrowthRecord)],
                  map(astuple, self.records))


def predicted_growth_slope(p: int, s: float) -> float:
    """Slope of log(ratio) vs log(N): -(ps+1) for even p, -(ps+2) for odd."""
    return -(p * s + 1.0) if p % 2 == 0 else -(p * s + 2.0)


def _positive_power(base: float, exponent, what: str, where: str) -> float:
    """base ** exponent, refused naming what and where unless it is finite
    and positive (float ** raises on overflow and returns 0 on underflow)."""
    try:
        value = base ** exponent
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} {value} at {where} is not finite and "
                         f"positive")
    return value


def _growth_points(p: int, domain: Domain) -> int:
    """Kernel points of one growth-table sum, the weight of its N in
    growth_tables' bins, from numbers alone: LINE_XI_NODES times the
    lattice's LINE_LATTICE_POINTS x LINE_LATTICE_SHIFTS or the tensor
    rule's LINE_NODES[p]^(p - 1) on the line, and 1 on the torus, whose
    exact sum at its one output mode had one representation at every
    p = 2..9 and N = 16..512 measured."""
    if domain == Domain.TORUS:
        return 1
    nodes = LINE_NODES.get(p)
    if nodes is None:
        return LINE_XI_NODES * LINE_LATTICE_POINTS * LINE_LATTICE_SHIFTS
    return LINE_XI_NODES * nodes ** (p - 1)


def growth_tables(p: int, domain: Domain, s_list, sigma, t: float, N_list,
                  *, sign: int = 1, seed: int = 0) -> list:
    """Sweep N at every s of s_list, one GrowthTable per s: data norm,
    window derivative mass, and their ratio ap_norm / data_norm^p, plus
    running and final log-log slopes.

    sigma follows WitnessConfig's rule (None means s + 1, sigma <= s is
    refused). N_list must pass checked_n_list with at least two N, since
    one N has no slope. seed seeds the line lattice rule's shifts. A data
    norm (refused by build_witness), an N^(p sigma) factor, a data norm^p
    (checked after the profile, whose own refusals come first) or a ratio
    that is not finite and positive (t = 0, say, or t so small that the
    profile underflows) is refused: the ratio would have no logarithm.

    The representation sum depends on p, domain, N and t alone, so it is
    formed once per N, by the evaluator on the first s's witness, and every
    s, the first included, forms its values from it and its own prefactors
    by _profile_values. At each N the witness, N^(p sigma) and prefactor
    checks of every s run before the sum is formed, and each s's table has
    the bits of its own run.

    The N share nothing, so each N's whole block (checks, sum, values,
    window masses and ratios) is one job, and the jobs are formed once per
    N in bins over the usable CPUs, weighed by _growth_points, with every
    bin but the first in a forked child (workers.run_bins). Each job is the
    same code on the same inputs and seed wherever it runs, so the tables
    have the bits of one process, and a failing N raises what running the
    N in order would raise, the first failing N's error. A sweep whose
    lightest bin would hold fewer than FORK_MIN_POINTS kernel points (every
    torus sweep, and a line p = 3 sweep of up to seven N) runs in this
    process. The running slopes are fitted here, in N order.
    """
    p, N_list = checked_p(p), checked_n_list(N_list, 2)
    s_list = list(s_list)
    if not s_list:
        raise ValueError("need at least one s, got an empty list")

    def run(j):
        """(data norm, window mass, ratio) of every s at N_list[j]."""
        N = N_list[j]
        witnesses = []
        for s in s_list:
            cfg = WitnessConfig(domain, p, N, s, sigma)
            pair = build_witness(cfg)
            dn = data_norm(pair, s)
            _positive_power(float(N), p * cfg.sigma, "N^(p sigma) factor",
                            f"N={N}")
            _validate_eval(pair, p, t, domain, sign)
            prefs = _prefactors(pair, p, _output_nodes(pair)[0], sign)
            witnesses.append((pair, dn, prefs))
        first = witnesses[0][0]
        if domain == Domain.TORUS:
            base = flow_derivative_torus(first, p, t, sign=sign)
        else:
            base = flow_derivative_line(first, p, t, sign=sign, seed=seed)
        rows = []
        for s, (pair, dn, prefs) in zip(s_list, witnesses):
            values, _ = _profile_values(prefs, base.sums, p, N)
            an = window_sobolev_mass(replace(base, values=values), s)
            ratio = an / _positive_power(dn, p, "data norm^p",
                                         f"p={p}, N={N}")
            if not 0.0 < ratio < math.inf:   # no log, so no slope
                raise ValueError(f"growth ratio {ratio} at N={N}, t={t} is "
                                 f"not finite and positive")
            rows.append((dn, an, ratio))
        return rows

    weights = [_growth_points(p, domain)] * len(N_list)
    per_N = run_bins(run, work_bins(weights, FORK_MIN_POINTS))
    tables = []
    for k, s in enumerate(s_list):
        records, logN, logR = [], [], []
        for N, rows in zip(N_list, per_N):
            dn, an, ratio = rows[k]
            logN.append(math.log(N))
            logR.append(math.log(ratio))
            if len(logN) >= 2:
                slope_run = float(np.polyfit(logN, logR, 1)[0])
            else:
                slope_run = float("nan")
            records.append(GrowthRecord(N, dn, an, ratio, slope_run))
        cfg = WitnessConfig(domain, p, N_list[-1], s, sigma)
        tables.append(GrowthTable(p, domain, s, cfg.sigma, t, records,
                                  records[-1].slope_running,
                                  predicted_growth_slope(p, s)))
    return tables


def growth_table(p: int, domain: Domain, s: float, sigma, t: float,
                 N_list, *, sign: int = 1, seed: int = 0) -> GrowthTable:
    """The N sweep of growth_tables at one s: its one table, with the same
    checks and refusals."""
    return growth_tables(p, domain, [s], sigma, t, N_list, sign=sign,
                         seed=seed)[0]
