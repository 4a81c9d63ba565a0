"""Signed-sum representations of output frequencies and their phase bounds.

An output frequency xi is *represented* by the witness set A when
xi = eps_1 a_1 + ... + eps_p a_p with eps_j = +-1 and a_j in A. Each
representation carries the phase frequency

    beta = -(eps_1 lambda(a_1) + ... + eps_p lambda(a_p)),

which controls the size of the interaction's time integral (order 1/|beta|).
The construction works because every representation that actually reaches
the output window has |beta| comparable to N (even p) or N^2 (odd p), with
a definite sign. This module enumerates representations exhaustively
(exactly on the torus, at the sign/class pattern level on the line),
encloses beta rigorously, audits the sign-definiteness claims over N
sweeps, and solves the count bookkeeping system for odd p.

The count vectors of p signed components do not depend on N, so the audit
runs once per (p, domain) over blocks of N (AUDIT_BLOCK entries per array)
and refuses a scan whose multisets times N exceed ENUMERATION_BUDGET. Each
term is added in one order whatever the block, and beta_range is the
one-row case of the same code, so the audit has the bits of one
representation at a time.

On the line, beta is separable in its slot groups, so KKT reduces its exact
extremes over the window to a short list of candidates, rounded outward.

Slots are tallied into four counts (n1, n2, n3, n4): plus/minus slots in
the near-N classes, then plus/minus slots in the far (near-2N) class.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ResourceBudgetError
from .spectral import Domain, FrequencySet, checked_p, dispersion
from . import witness as _witness

ENUMERATION_BUDGET = 10 ** 8
# multisets x N entries per array of an audit block; at 2^16 the heap kept
# the freed arrays and criterion 4 left 1.5 MB more resident
AUDIT_BLOCK = 1 << 15


@dataclass(frozen=True)
class BetaRange:
    """Rigorous enclosure [lo, hi] of beta over a representation."""

    lo: float
    hi: float
    sign_definite: bool = field(init=False)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty beta range")
        object.__setattr__(self, "sign_definite",
                           self.lo > 0.0 or self.hi < 0.0)


@dataclass(frozen=True)
class Representation:
    """One unordered decomposition xi = sum eps_j a_j.

    slots holds the p (sign, payload) pairs, plus copies first, then minus
    copies, each run in component order; payloads are concrete integers on
    the torus and (lo, hi) component tuples on the line. multiplicity
    counts the ordered tuples this unordered pattern stands for. counts =
    (n1, n2, n3, n4).
    """

    domain: Domain
    slots: tuple
    counts: tuple
    multiplicity: int

    def beta(self) -> float:
        """Exact beta (torus only)."""
        if self.domain != Domain.TORUS:
            raise ValueError("use beta_range for line representations")
        return beta_range(self).lo


# -- enumeration -----------------------------------------------------------

@lru_cache(maxsize=64)
def _multiset_counts(n_sym: int, p: int):
    """All count vectors over n_sym symbols summing to p, lexicographic.

    Returned as an (n_multisets, n_sym) int array. Cached; callers must
    not mutate.
    """
    rows = []
    for bars in itertools.combinations(range(p + n_sym - 1), n_sym - 1):
        prev, counts = -1, []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(p + n_sym - 2 - prev)
        rows.append(counts)
    return np.array(rows, dtype=np.int64)


def _tallies_of(p: int, domain: Domain, sgn, ci, counts):
    """Two lists: the tally (n1, n2, n3, n4) and the multiplicity
    p! / prod(c!) of each row of counts over symbols of signs sgn and
    components ci."""
    n_comp = len(ci) // 2
    # the far (near-2N) class is the last component of the odd-p sets
    far = (n_comp >= 2 and (domain == Domain.LINE or n_comp == 3)
           and ci == n_comp - 1)
    # row k of tally marks the count of (n1, n2, n3, n4) symbol k adds to
    tally = np.eye(4, dtype=np.int64)[(sgn < 0) + 2 * far]
    fact = [math.factorial(c) for c in range(p + 1)]
    return ((counts @ tally).tolist(),
            [fact[p] // math.prod(fact[c] for c in row)
             for row in counts.tolist()])


def _check_budget(p: int, n_components: int, n_N: int = 1) -> int:
    """The multiset count of p signed components; ResourceBudgetError when
    it times the n_N sets it is formed for exceeds ENUMERATION_BUDGET."""
    n_sym = 2 * n_components
    n_multisets = math.comb(p + n_sym - 1, n_sym - 1)
    if n_multisets * n_N > ENUMERATION_BUDGET:
        at = f" at {n_N} N" if n_N > 1 else ""
        raise ResourceBudgetError(
            f"{n_multisets} multisets over {n_sym} symbols{at} exceeds the "
            f"enumeration budget {ENUMERATION_BUDGET:g}", n_multisets * n_N,
            ENUMERATION_BUDGET)
    return n_multisets


def _interval_array(sets):
    """(n_sets, n_components, 2) array of the component ends of frequency
    sets of one domain and size, torus modes v as the points (v, v)."""
    comps = np.array([A.components for A in sets])
    return comps if comps.ndim == 3 else np.stack([comps, comps], axis=-1)


def _signed_sum_bounds(p: int, comps):
    """Symbols, count vectors and signed-sum bounds of every multiset of p
    signed components, for each set of an _interval_array.

    Returns (sgn, ci, counts, lo, hi): the sums of the multiset in row i
    range over [lo[i, j], hi[i, j]] in set j (exact integers, lo == hi, on
    the torus). Raises ResourceBudgetError when the multisets times the
    sets exceed ENUMERATION_BUDGET.
    """
    n_sets, n_comp, _ = comps.shape
    _check_budget(p, n_comp, n_sets)
    # symbol order: all plus copies of the components, then all minus
    sgn = np.array([1] * n_comp + [-1] * n_comp)
    ci = np.array([*range(n_comp)] * 2)
    counts = _multiset_counts(2 * n_comp, p)
    a, b = comps[..., 0], comps[..., 1]
    lo = np.concatenate([a, -b], axis=1)
    # einsum reduces over the contiguous symbol axis, adding each sum's
    # terms in one order whatever the number of sets
    lo_sum = np.einsum("mk,nk->mn", counts, lo)
    if (a == b).all():    # point components: the torus
        return sgn, ci, counts, lo_sum, lo_sum
    hi = np.concatenate([b, -a], axis=1)
    return sgn, ci, counts, lo_sum, np.einsum("mk,nk->mn", counts, hi)


def enumerate_representations(target, p: int, A: FrequencySet):
    """All representations of the target reaching from +-A.

    Torus: target is an integer mode; enumeration is exhaustive over
    unordered multisets of signed modes (multiplicities recover the ordered
    count exactly). Line: target is a window (lo, hi); enumeration runs at
    the sign/class pattern level and keeps a pattern iff the interval range
    of its signed sums intersects the window.

    Raises ResourceBudgetError when the multiset count would exceed
    ENUMERATION_BUDGET.
    """
    p = checked_p(p)
    sgn, ci, counts, lo_sum, hi_sum = _signed_sum_bounds(
        p, _interval_array([A]))
    wlo, whi = (int(target),) * 2 if A.domain == Domain.TORUS else target
    hits = counts[(hi_sum[:, 0] >= wlo) & (lo_sum[:, 0] <= whi)]
    slots = [(s, A.components[c]) for s, c in zip(sgn.tolist(), ci.tolist())]
    tallies, mults = _tallies_of(p, A.domain, sgn, ci, hits)
    return [Representation(A.domain,
                           tuple(slot for slot, c in zip(slots, row)
                                 for _ in range(c)),
                           tuple(tal), mult)
            for row, tal, mult in zip(hits.tolist(), tallies, mults)]


# -- beta enclosures --------------------------------------------------------

@lru_cache(maxsize=None)
def _candidates(shape):
    """KKT candidates for max sum_k r_k lambda(x_k) over slot tuples whose
    signed sum lies in a window, per group (role r, slot count m).

    lambda is strictly convex on positive values, so the convex-role
    (r = +1) slots sit at a vertex of the box cut by the window, each at an
    interval end but for one free slot in all, and each concave-role
    (r = -1) group splits equally (Jensen) at lo, at hi or at the shared
    value x. Three (n_candidates, g) int arrays count each group's slots at
    lo, at hi and at x. Cached per shape; callers must not mutate.
    """
    options = [[(m - k - f, k, f) for f in (0, 1) for k in range(m + 1 - f)]
               if r > 0 else [(m, 0, 0), (0, m, 0), (0, 0, m)]
               for r, m in shape]
    rows = [row for row in itertools.product(*options)
            if sum(f for (r, _), (_, _, f) in zip(shape, row) if r > 0) <= 1]
    table = np.array(rows, dtype=np.int64)
    return table[..., 0], table[..., 1], table[..., 2]


def _constrained_beta_range(shape, lo, hi, window):
    """Exact enclosures of beta over slot tuples whose signed sum lies in
    the window (Boyd & Vandenberghe, Convex Optimization, 5.5), for rows of
    slot groups of one shape.

    shape holds each group's (sign, slot count), lo and hi its interval
    per row ((rows, groups) arrays), and window (wlo, whi) two scalars or
    two arrays of one value per row. beta_hi maximises sum_minus lambda -
    sum_plus lambda, and -beta_lo the same with the roles swapped. At an
    interior slot lambda'(x_k) = +-mu, the window's multiplier, and lambda'
    is strictly increasing on positive values, so the free slot and the
    interior groups share one x, which a binding window edge fixes by one
    linear equation. Sums and x meet the window and the intervals to 4 p
    ulps of sum m hi; each end moves out by 8 p (p + 2) ulps of
    sum m lambda(hi), a bound on a candidate's rounding. Returns (beta_lo,
    beta_hi) arrays, nan on the rows that no candidate reaches.
    """
    sgn, m = (np.array(col) for col in zip(*shape))
    wlo, whi = (np.broadcast_to(w, len(lo))[:, None] for w in window)
    lam_lo, lam_hi = dispersion(lo), dispersion(hi)
    p, u = int(m.sum()), math.ulp(1.0)
    # vecdot and the stacked matmuls below add a row's terms in one order
    # whatever the number of rows
    tol = (4 * p * u * np.vecdot(hi, m))[:, None, None]
    slack = 8 * p * (p + 2) * u * np.vecdot(lam_hi, m)
    lo, hi, lam_lo, lam_hi = (a[:, None] for a in (lo, hi, lam_lo, lam_hi))
    ends = []
    for roles in (-sgn, sgn):
        n_lo, n_hi, n_x = _candidates(tuple(zip(roles.tolist(), m.tolist())))
        t0 = (n_lo * lo + n_hi * hi) @ sgn    # signed sum of the end slots
        f0 = (n_lo * lam_lo + n_hi * lam_hi) @ roles
        c = n_x @ sgn
        vertex = ~n_x.any(axis=1)
        reach = (t0 >= wlo - tol[..., 0]) & (t0 <= whi + tol[..., 0])
        best = np.where(vertex & reach, f0, -np.inf).max(axis=1)
        # at c == 0 the value is constant in x and another candidate's
        shared = c != 0
        n_x, t0, f0, c = n_x[shared], t0[:, shared], f0[:, shared], c[shared]
        for w in (wlo, whi):
            x = (w - t0) / c
            inside = np.all((n_x == 0) | ((lo - tol <= x[..., None])
                                          & (x[..., None] <= hi + tol)), axis=2)
            values = f0 + (n_x @ roles) * dispersion(x)
            best = np.maximum(best, np.where(inside, values, -np.inf).max(
                axis=1, initial=-np.inf))
        ends.append(best + slack)
    missed = np.isinf(ends[0]) | np.isinf(ends[1])
    return (np.where(missed, np.nan, -ends[1]),
            np.where(missed, np.nan, ends[0]))


def _enclosures(sgn, counts, lo, hi, window=None):
    """Beta enclosures of rows of p slots.

    Symbol k has sign sgn[k] and, in row i, counts[i, k] slots with
    payload interval [lo[i, k], hi[i, k]]; slots run through the symbols
    in order. The interval bound adds -lambda per plus slot and +lambda
    per minus slot, slot by slot. With a window (wlo, whi), scalars or one
    value per row, a row whose bound is not sign-definite is cut to the
    exact window-constrained range (_constrained_beta_range), one call per
    group shape; the sign-definite ones are left alone, since interval
    arithmetic is tight there (the class widths are tiny against |beta|).
    Returns (lo, hi) arrays, nan on rows that no slot tuple brings into
    the window.
    """
    # p slots per row; the initial value serves an audit block with no hit
    n_rows, p = len(counts), counts.sum(axis=1).max(initial=1)
    lam_lo, lam_hi = dispersion(lo), dispersion(hi)
    plus = sgn > 0    # contributes -lambda(a_j)
    blo, bhi = (
        # one column per slot, which cumsum adds left to right
        np.repeat(term.ravel(), counts.ravel()).reshape(n_rows, p)
        .cumsum(axis=1)[:, -1]
        for term in (np.where(plus, -lam_hi, lam_lo),
                     np.where(plus, -lam_lo, lam_hi)))
    if window is None:
        return blo, bhi
    wlo, whi = (np.broadcast_to(w, n_rows) for w in window)
    todo = np.flatnonzero((blo <= 0.0) & (bhi >= 0.0))
    if todo.size == 0:
        return blo, bhi
    # groups in (payload, sign) order: components are sorted, so that is
    # one order for all rows
    order = np.lexsort((sgn, lo[0]))
    keys = counts[todo][:, order]
    for key in map(np.array, set(map(tuple, keys.tolist()))):
        sel = todo[(keys == key).all(axis=1)]
        cols = order[key > 0]
        shape = tuple(zip(sgn[cols].tolist(), key[key > 0].tolist()))
        rlo, rhi = _constrained_beta_range(
            shape, lo[sel][:, cols], hi[sel][:, cols], (wlo[sel], whi[sel]))
        # the refinement can only shrink the interval bound
        blo[sel] = np.maximum(blo[sel], rlo)
        bhi[sel] = np.minimum(bhi[sel], rhi)
    return blo, bhi


def beta_range(rep: Representation, *, window=None):
    """Enclose beta for one representation (the one-row _enclosures).

    Torus: exact point enclosure. Line: interval arithmetic over the slot
    classes; when the output window is supplied and that enclosure is not
    already sign-definite, it is cut to the exact window-constrained range
    (_constrained_beta_range). May return None in the windowed case when
    no slot tuple of the pattern reaches the window.
    """
    torus = rep.domain == Domain.TORUS
    runs = [(slot, len(list(run)))
            for slot, run in itertools.groupby(rep.slots)]
    ends = np.array([(v, v) if torus else v for (_, v), _ in runs],
                    dtype=float)
    lo, hi = _enclosures(np.array([s for (s, _), _ in runs]),
                         np.array([[m for _, m in runs]]),
                         ends[None, :, 0], ends[None, :, 1],
                         None if torus else window)
    if np.isnan(lo[0]):
        return None
    return BetaRange(float(lo[0]), float(hi[0]))


# -- resonance audit --------------------------------------------------------

@dataclass
class ResonanceReport:
    p: int
    domain: Domain
    N0: int
    scale_power: int          # |beta| is compared against N^scale_power
    per_N: list               # dicts, one per requested N

    def to_dict(self) -> dict:
        return {"p": self.p, "domain": self.domain.value, "N0": self.N0,
                "scale_power": self.scale_power, "per_N": self.per_N}


def _clean(lo, hi, p: int):
    # even p: beta < 0 (|beta| ~ N); odd p: beta > 0 (|beta| ~ N^2)
    return hi < 0.0 if p % 2 == 0 else lo > 0.0


def _abs_range(lo, hi):
    """|beta| ranges of enclosure arrays."""
    pos, neg = lo >= 0.0, hi <= 0.0
    return (np.where(pos, lo, np.where(neg, -hi, 0.0)),
            np.where(pos, hi, np.where(neg, -lo, np.maximum(-lo, hi))))


def _nearest_gap(lo_sum, hi_sum, wlo, whi):
    """Distance from the closest attainable signed sum to the window."""
    below = np.maximum(wlo - hi_sum, 0.0)
    above = np.maximum(lo_sum - whi, 0.0)
    return float(np.maximum(below, above).min())


def _audit_block(p, domain, Ns, wanted):
    """Representations reaching the witness window at every N of a block,
    with beta verdicts, formed together.

    Returns (bad, entries): the N showing a violation, and the report
    entries of the N in wanted. Skips N where the witness set is
    degenerate (e.g. torus odd p with 2N == N+1).
    """
    kept, sets = [], []
    for N in Ns:
        try:
            sets.append(_witness.frequency_set(
                _witness.WitnessConfig(domain, p, N, s=0.0)))
        except ValueError:
            continue
        kept.append(N)
    if not sets:
        return set(), []
    Ns = kept
    # the window depends on p and the domain alone
    window = _witness.output_window(
        _witness.WitnessConfig(domain, p, Ns[0], s=0.0))
    torus = domain == Domain.TORUS
    wlo, whi = (window,) * 2 if torus else window
    comps = _interval_array(sets)
    sgn, ci, counts, lo_sum, hi_sum = _signed_sum_bounds(p, comps)
    # the hits by N, each N's in enumeration order
    col, row = np.nonzero(((hi_sum >= wlo) & (lo_sum <= whi)).T)
    ends = comps[col][:, ci]
    blo, bhi = _enclosures(sgn, counts[row], ends[..., 0], ends[..., 1],
                           None if torus else window)
    reached = ~np.isnan(blo)
    bad = reached & ~_clean(blo, bhi, p)
    entries = []
    for j, N in enumerate(Ns):
        if N not in wanted:
            continue
        here, hit = reached & (col == j), bad & (col == j)
        tallies, mults = _tallies_of(p, domain, sgn, ci, counts[row[hit]])
        entry = {"N": N, "n_representations": int(here.sum()),
                 "beta_over_scale_min": None, "beta_over_scale_max": None,
                 "violations": [{"counts": tal, "multiplicity": mult,
                                 "beta_lo": lo, "beta_hi": hi}
                                for tal, mult, lo, hi in zip(
                                    tallies, mults, blo[hit].tolist(),
                                    bhi[hit].tolist())]}
        if here.any():
            scale = float(N) ** (1 if p % 2 == 0 else 2)
            alo, ahi = _abs_range(blo[here], bhi[here])
            entry["beta_over_scale_min"] = float((alo / scale).min())
            entry["beta_over_scale_max"] = float((ahi / scale).max())
        else:
            entry["nearest_gap"] = _nearest_gap(lo_sum[:, j], hi_sum[:, j],
                                                wlo, whi)
        entries.append(entry)
    return {Ns[j] for j in col[bad].tolist()}, entries


def verify_resonance_bounds(p: int, domain: Domain, N_list, *,
                            scan_max=None) -> ResonanceReport:
    """Audit sign-definiteness of beta for every representation reaching
    the output window, across N.

    Reports |beta|/N (even p) or |beta|/N^2 (odd p) windows per N in
    N_list, every violation found, and N0: one past the largest N in a
    dense scan 1..max(N_list) that still shows a violation (1 if none do).
    N_list follows checked_n_list's rule, and a requested N whose witness
    set is degenerate (odd p on the torus at N = 1) is refused, where the
    dense scan skips it; so are scan_max < 1 and p < 2. The N are audited
    in blocks (AUDIT_BLOCK), and multisets times audited N above
    ENUMERATION_BUDGET raise ResourceBudgetError before any of them is.
    """
    p = checked_p(p)    # p < 2: the scan would skip every N as degenerate
    wanted = set(_witness.checked_n_list(N_list))
    # _audit_block would drop a degenerate one without a word
    sets = [_witness.frequency_set(_witness.WitnessConfig(domain, p, N, s=0.0))
            for N in wanted]
    if scan_max is not None and scan_max < 1:   # N0 = 1 would read as clean
        raise ValueError(f"need scan_max >= 1, got {scan_max}")
    scan_hi = int(scan_max if scan_max is not None else max(wanted))
    # requested N beyond the dense-scan ceiling are still audited
    beyond = sorted(N for N in wanted if N > scan_hi)
    n_multisets = _check_budget(p, len(sets[0].components),
                                scan_hi + len(beyond))
    todo = itertools.chain(range(1, scan_hi + 1), beyond)
    last_bad, per_N = 0, []
    block = max(1, AUDIT_BLOCK // n_multisets)
    while Ns := list(itertools.islice(todo, block)):
        bad, entries = _audit_block(p, domain, Ns, wanted)
        last_bad = max([last_bad] + [N for N in bad if N <= scan_hi])
        per_N += entries
    return ResonanceReport(p, domain, last_bad + 1,
                           1 if p % 2 == 0 else 2, per_N)


# -- diophantine bookkeeping -------------------------------------------------

def _admissible(counts):
    """n1 > n2, n3 < n4 and n2 + n3 <= 2, per row of an (n, 4) count array."""
    n1, n2, n3, n4 = counts.T
    return (n1 > n2) & (n3 < n4) & (n2 + n3 <= 2)


def solve_diophantine(p: int):
    """All (n1, n2, n3, n4) with n1+n2+n3+n4 = p, n1-n2+2(n3-n4) = 0,
    n1 > n2, n3 < n4, and n2+n3 <= 2, by exhaustive search.

    These are the only slot tallies a window-reaching representation can
    have for odd p; the balance constraint is what cancels the order-N
    part of the signed sum.
    """
    p = checked_p(p)
    if p % 2 == 0:
        raise ValueError("the count system applies to odd p >= 3")
    counts = _multiset_counts(4, p)
    n1, n2, n3, n4 = counts.T
    keep = (n1 - n2 + 2 * (n3 - n4) == 0) & _admissible(counts)
    return sorted(tuple(row) for row in counts[keep].tolist())



def closed_form_profiles(p: int):
    """The same tallies in closed form, keyed by p mod 3.

    Writing g = n4 - n3 (the net far-class weight) and k = n2 + n3, the
    balance equation forces 2k + 3g = p, so k is pinned to {0, 1, 2} by
    p mod 3 and each (n2, n3) split of k gives one profile.
    """
    p = checked_p(p)
    if p % 2 == 0:
        raise ValueError("the count system applies to odd p >= 3")
    r = p % 3
    if r == 0:
        g = p // 3
        profiles = [(2 * g, 0, 0, g)]
    elif r == 1:
        g = (p - 4) // 3
        profiles = [(2 + 2 * g, 2, 0, g),
                    (1 + 2 * g, 1, 1, 1 + g),
                    (2 * g, 0, 2, 2 + g)]
    else:
        g = (p - 2) // 3
        profiles = [(1 + 2 * g, 1, 0, g),
                    (2 * g, 0, 1, 1 + g)]
    return sorted(profiles)


# -- constructive representability -------------------------------------------

@dataclass
class ConstructedRepresentation:
    """A concrete slot assignment produced by the triplet construction."""

    xi: float
    slots: list          # (sign, value) pairs
    triplets: list       # (a, b, c) with a + b - c = per-triplet target
    fillers: int         # number of (+a0, -a0) cancelling pairs
    defect: float        # |sum of signed slots - xi|


@lru_cache(maxsize=64)
def _triplet_plan(p: int, N: int) -> tuple:
    """What construct_representation needs of the odd-p line witness at
    (p, N): the left ends lo1 and lo2 of its near-N and near-2N
    components, the triplet count m and the attainable per-triplet range
    (vlo, vhi). Cached per (p, N), so that a grid of xi forms them once."""
    cfg = _witness.WitnessConfig(Domain.LINE, p, N, s=0.0)
    (lo1, _), (lo2, _) = _witness.frequency_set(cfg).components
    return (lo1, lo2, _witness.triplet_count(p),
            _witness.attainable_triplet_range(p, N))


def construct_representation(xi: float, p: int, N: int) -> ConstructedRepresentation:
    """Build an explicit representation of xi for the odd-p line witness.

    Stacks m = triplet_count(p) triplets a + b - c (a, b near N, c near 2N),
    each hitting xi/m — attainable because the window is contained in m
    times the attainable triplet range — and pads with (p - 3m)/2
    cancelling (+a0, -a0) pairs.
    """
    p = checked_p(p)
    if p % 2 == 0:
        raise ValueError("the triplet construction applies to odd p")
    lo1, lo2, m, (vlo, vhi) = _triplet_plan(p, N)
    v = xi / m
    if not (vlo - 1e-12 <= v <= vhi + 1e-12):
        raise ValueError(f"per-triplet target {v} outside attainable range")
    v = min(max(v, vlo), vhi)

    # threshold where the far slot can sit exactly at its left endpoint 2N
    thresh = 2 * lo1 - lo2
    triplets = []
    for _ in range(m):
        if v >= thresh:
            c = lo2
            a = b = (v + c) / 2.0
        else:
            a = b = lo1
            c = 2 * lo1 - v
        triplets.append((a, b, c))
    slots = []
    for a, b, c in triplets:
        slots += [(+1, a), (+1, b), (-1, c)]
    n_fill = (p - 3 * m) // 2
    for _ in range(n_fill):
        slots += [(+1, lo1), (-1, lo1)]
    total = math.fsum(s * val for s, val in slots)
    return ConstructedRepresentation(xi, slots, triplets, n_fill,
                                     abs(total - xi))
