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

On the line, beta is separable in its slot groups, so KKT reduces its exact
extremes over the window to a short list of candidates, rounded outward.

Slots are tallied into four counts (n1, n2, n3, n4): plus/minus slots in
the near-N classes, then plus/minus slots in the far (near-2N) class.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ResourceBudgetError
from .spectral import Domain, FrequencySet, dispersion
from . import witness as _witness

ENUMERATION_BUDGET = 10 ** 8


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
        lam = dispersion([v for _, v in self.slots]).tolist()
        return float(-sum(s * a for (s, _), a in zip(self.slots, lam)))


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


def _symbols(components):
    """Symbol order: all plus copies of the components, then all minus."""
    out = [(+1, i) for i in range(len(components))]
    out += [(-1, i) for i in range(len(components))]
    return out


def _far_class_start(domain: Domain, n_components: int) -> int:
    # the far (near-2N) class is the last component of the odd-p sets
    if n_components >= 2 and (domain == Domain.LINE or n_components == 3):
        return n_components - 1
    return n_components


def _signed_sum_bounds(p: int, A: FrequencySet):
    """Symbols, count vectors and signed-sum bounds of every multiset of p
    signed components of A.

    Returns (symbols, counts, lo, hi): the sums of the multiset in row i
    range over [lo[i], hi[i]] (exact integers, lo == hi, on the torus).
    Raises ResourceBudgetError when the multiset count would exceed
    ENUMERATION_BUDGET.
    """
    comps = A.components
    symbols = _symbols(comps)
    n_sym = len(symbols)
    n_multisets = math.comb(p + n_sym - 1, n_sym - 1)
    if n_multisets > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"{n_multisets} multisets over {n_sym} symbols exceeds the "
            f"enumeration budget {ENUMERATION_BUDGET:g}", n_multisets,
            ENUMERATION_BUDGET)
    counts = _multiset_counts(n_sym, p)
    if A.domain == Domain.TORUS:
        vals = np.array([sgn * comps[ci] for sgn, ci in symbols],
                        dtype=np.int64)
        sums = counts @ vals
        return symbols, counts, sums, sums
    lo_c = np.array([comps[ci][0] if sgn > 0 else -comps[ci][1]
                     for sgn, ci in symbols])
    hi_c = np.array([comps[ci][1] if sgn > 0 else -comps[ci][0]
                     for sgn, ci in symbols])
    return symbols, counts, counts @ lo_c, counts @ hi_c


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
    if p < 2 or int(p) != p:
        raise ValueError("p must be an integer >= 2")
    symbols, counts, lo_sum, hi_sum = _signed_sum_bounds(p, A)
    wlo, whi = (int(target),) * 2 if A.domain == Domain.TORUS else target
    hits = counts[(hi_sum >= wlo) & (lo_sum <= whi)]
    far_start = _far_class_start(A.domain, len(A.components))
    # row k of tally marks the count of (n1, n2, n3, n4) symbol k adds to
    tally = np.eye(4, dtype=np.int64)[[(sgn < 0) + 2 * (ci >= far_start)
                                       for sgn, ci in symbols]]
    slots = [(sgn, A.components[ci]) for sgn, ci in symbols]
    fact = [math.factorial(c) for c in range(p + 1)]
    return [Representation(A.domain,
                           tuple(slot for slot, c in zip(slots, row)
                                 for _ in range(c)),
                           tuple(tal),
                           fact[p] // math.prod(fact[c] for c in row))
            for row, tal in zip(hits.tolist(), (hits @ tally).tolist())]


# -- beta enclosures --------------------------------------------------------

def _plain_beta_range(rep: Representation) -> BetaRange:
    lo = hi = 0.0
    lam = dispersion([payload for _, payload in rep.slots]).tolist()
    for (sgn, _), (a, b) in zip(rep.slots, lam):
        if sgn > 0:   # contributes -lambda(a_j)
            lo -= b
            hi -= a
        else:
            lo += a
            hi += b
    return BetaRange(lo, hi)


def _slot_groups(rep: Representation):
    """(sign, slot count, lo, hi) per (payload, sign) group of slots, in
    (payload, sign) order: components are sorted, so this is class order."""
    groups = Counter((payload, sgn) for sgn, payload in rep.slots)
    return [(sgn, m, lo, hi) for ((lo, hi), sgn), m in sorted(groups.items())]


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


def _constrained_beta_range(items, window):
    """Exact enclosure of beta over slot tuples whose signed sum lies in
    the window (Boyd & Vandenberghe, Convex Optimization, 5.5).

    items are the slot groups (_slot_groups). beta_hi maximises sum_minus
    lambda - sum_plus lambda, and -beta_lo the same with the roles swapped.
    At an interior slot lambda'(x_k) = +-mu, the window's multiplier, and
    lambda' is strictly increasing on positive values, so the free slot and
    the interior groups share one x, which a binding window edge fixes by
    one linear equation. Sums and x meet the window and the intervals to
    4 p ulps of sum m hi; each end moves out by 8 p (p + 2) ulps of
    sum m lambda(hi), a bound on a candidate's rounding. Returns None when
    no candidate reaches the window.
    """
    sgn, m, lo, hi = (np.array(col) for col in zip(*items))
    lam_lo, lam_hi = dispersion(lo), dispersion(hi)
    p, u = int(m.sum()), math.ulp(1.0)
    tol = 4 * p * u * float(m @ hi)
    slack = 8 * p * (p + 2) * u * float(m @ lam_hi)
    ends = []
    for roles in (-sgn, sgn):
        n_lo, n_hi, n_x = _candidates(tuple(zip(roles.tolist(), m.tolist())))
        t0 = (n_lo * lo + n_hi * hi) @ sgn    # signed sum of the end slots
        f0 = (n_lo * lam_lo + n_hi * lam_hi) @ roles
        c = n_x @ sgn
        vertex = ~n_x.any(axis=1)
        values = [f0[vertex & (t0 >= window[0] - tol)
                     & (t0 <= window[1] + tol)]]
        # at c == 0 the value is constant in x and another candidate's
        shared = c != 0
        n_x, t0, f0, c = n_x[shared], t0[shared], f0[shared], c[shared]
        for w in window:
            x = (w - t0) / c
            inside = np.all((n_x == 0) | ((lo - tol <= x[:, None])
                                          & (x[:, None] <= hi + tol)), axis=1)
            values.append(f0[inside] + (n_x[inside] @ roles)
                          * dispersion(x[inside]))
        values = np.concatenate(values)
        if values.size == 0:
            return None
        ends.append(float(values.max()) + slack)
    return BetaRange(-ends[1], ends[0])


def beta_range(rep: Representation, *, window=None):
    """Enclose beta for one representation.

    Torus: exact point enclosure. Line: interval arithmetic over the slot
    classes; when the output window is supplied and that enclosure is not
    already sign-definite, it is cut to the exact window-constrained range
    (_constrained_beta_range). May return None in the windowed case when
    no slot tuple of the pattern reaches the window.
    """
    if rep.domain == Domain.TORUS:
        b = rep.beta()
        return BetaRange(b, b)
    plain = _plain_beta_range(rep)
    if window is None or plain.sign_definite:
        # unconstrained IA is tight for the sign-definite patterns (the
        # class widths are tiny against |beta|), so skip the refinement
        return plain
    refined = _constrained_beta_range(_slot_groups(rep), window)
    if refined is None:
        return None
    # the refinement can only shrink the plain enclosure
    return BetaRange(max(plain.lo, refined.lo), min(plain.hi, refined.hi))


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


def _expected_beta_sign(p: int) -> int:
    # even p: beta < 0 (|beta| ~ N); odd p: beta > 0 (|beta| ~ N^2)
    return -1 if p % 2 == 0 else +1


def _abs_range(br: BetaRange):
    if br.lo >= 0.0:
        return br.lo, br.hi
    if br.hi <= 0.0:
        return -br.hi, -br.lo
    return 0.0, max(-br.lo, br.hi)


def _audit_one_N(p, domain, N):
    """Representations reaching the witness window at this N, with beta
    verdicts.

    Returns (entry dict, had_violation). Skips N where the witness set is
    degenerate (e.g. torus odd p with 2N == N+1).
    """
    cfg = _witness.WitnessConfig(domain, p, N, s=0.0)
    try:
        A = _witness.frequency_set(cfg)
    except ValueError:
        return None, False
    window = _witness.output_window(cfg)
    expected = _expected_beta_sign(p)
    scale = float(N) ** (1 if p % 2 == 0 else 2)
    ratios_lo, ratios_hi, violations = [], [], []
    n_reaching = 0
    for rep in enumerate_representations(window, p, A):
        br = beta_range(rep, window=window)
        if br is None:
            continue
        n_reaching += 1
        ok = br.sign_definite and (br.hi < 0.0 if expected < 0 else br.lo > 0.0)
        alo, ahi = _abs_range(br)
        ratios_lo.append(alo / scale)
        ratios_hi.append(ahi / scale)
        if not ok:
            violations.append({"counts": list(rep.counts),
                               "multiplicity": rep.multiplicity,
                               "beta_lo": br.lo, "beta_hi": br.hi})
    entry = {"N": int(N), "n_representations": n_reaching,
             "beta_over_scale_min": min(ratios_lo) if ratios_lo else None,
             "beta_over_scale_max": max(ratios_hi) if ratios_hi else None,
             "violations": violations}
    if n_reaching == 0:
        entry["nearest_gap"] = _nearest_gap(p, A, window)
    return entry, bool(violations)


def _nearest_gap(p, A, window):
    """Distance from the closest attainable signed sum to the window."""
    _, _, lo_sum, hi_sum = _signed_sum_bounds(p, A)
    wlo, whi = (int(window),) * 2 if A.domain == Domain.TORUS else window
    below = np.maximum(wlo - hi_sum, 0.0)
    above = np.maximum(lo_sum - whi, 0.0)
    return float(np.maximum(below, above).min())


def verify_resonance_bounds(p: int, domain: Domain, N_list, *,
                            scan_max=None) -> ResonanceReport:
    """Audit sign-definiteness of beta for every representation reaching
    the output window, across N.

    Reports |beta|/N (even p) or |beta|/N^2 (odd p) windows per N in
    N_list, every violation found, and N0: one past the largest N in a
    dense scan 1..max(N_list) that still shows a violation (1 if none do).
    N_list follows checked_n_list's rule, and a requested N whose witness
    set is degenerate (odd p on the torus at N = 1) is refused, where the
    dense scan skips it; so are scan_max < 1 and p < 2.
    """
    if p < 2 or int(p) != p:    # the scan would skip every N as degenerate
        raise ValueError("p must be an integer >= 2")
    wanted = set(_witness.checked_n_list(N_list))
    for N in wanted:   # _audit_one_N would drop it without a word
        _witness.frequency_set(_witness.WitnessConfig(domain, p, N, s=0.0))
    if scan_max is not None and scan_max < 1:   # N0 = 1 would read as clean
        raise ValueError(f"need scan_max >= 1, got {scan_max}")
    scan_hi = int(scan_max if scan_max is not None else max(wanted))

    last_bad = 0
    per_N = []
    # requested N beyond the dense-scan ceiling are still audited
    for N in sorted(set(range(1, scan_hi + 1)) | wanted):
        entry, bad = _audit_one_N(p, domain, N)
        if bad and N <= scan_hi:
            last_bad = N
        if N in wanted and entry is not None:
            per_N.append(entry)
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
    if p % 2 == 0 or p < 3:
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
    if p % 2 == 0 or p < 3:
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


def construct_representation(xi: float, p: int, N: int) -> ConstructedRepresentation:
    """Build an explicit representation of xi for the odd-p line witness.

    Stacks m = triplet_count(p) triplets a + b - c (a, b near N, c near 2N),
    each hitting xi/m — attainable because the window is contained in m
    times the attainable triplet range — and pads with (p - 3m)/2
    cancelling (+a0, -a0) pairs.
    """
    if p % 2 == 0:
        raise ValueError("the triplet construction applies to odd p")
    cfg = _witness.WitnessConfig(Domain.LINE, p, N, s=0.0)
    (lo1, hi1), (lo2, hi2) = _witness.frequency_set(cfg).components
    m = _witness.triplet_count(p)
    vlo, vhi = _witness.attainable_triplet_range(p, N)
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
