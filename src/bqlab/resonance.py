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
from .spectral import Domain, FrequencySet, SetSign, dispersion
from . import witness as _witness

ENUMERATION_BUDGET = 10 ** 8

# group-sum grid resolution for window-constrained beta enclosures,
# keyed by the number of (class, sign) groups in the pattern
_CELLS_BY_GROUPS = {1: 4096, 2: 512, 3: 64, 4: 24}
_CELLS_BY_GROUPS_SCAN = {1: 1024, 2: 128, 3: 32, 4: 16}


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

    signs/class_indices/payloads run over the p slots in a canonical
    order; payloads are concrete integers on the torus and (lo, hi)
    component tuples on the line. multiplicity counts the ordered tuples
    this unordered pattern stands for. counts = (n1, n2, n3, n4).
    """

    domain: Domain
    signs: tuple
    class_indices: tuple
    payloads: tuple
    counts: tuple
    multiplicity: int

    @property
    def p(self) -> int:
        return len(self.signs)

    def signed_sum(self):
        """Exact sum (torus only)."""
        if self.domain != Domain.TORUS:
            raise ValueError("signed_sum is exact only on the torus")
        return sum(s * v for s, v in zip(self.signs, self.payloads))

    def beta(self) -> float:
        """Exact beta (torus only)."""
        if self.domain != Domain.TORUS:
            raise ValueError("use beta_range for line representations")
        return float(-sum(s * dispersion(v)
                          for s, v in zip(self.signs, self.payloads)))


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


def _counts_from_cells(cell_counts, symbols, far_start):
    n1 = n2 = n3 = n4 = 0
    for (sgn, ci), c in zip(symbols, cell_counts):
        if ci < far_start:
            if sgn > 0:
                n1 += c
            else:
                n2 += c
        else:
            if sgn > 0:
                n3 += c
            else:
                n4 += c
    return (n1, n2, n3, n4)


def _build_representation(domain, cell_counts, symbols, components,
                          far_start, p) -> Representation:
    signs, cidx, payloads = [], [], []
    mult = math.factorial(p)
    for (sgn, ci), c in zip(symbols, cell_counts):
        mult //= math.factorial(int(c))
        signs.extend([sgn] * int(c))
        cidx.extend([ci] * int(c))
        payloads.extend([components[ci]] * int(c))
    return Representation(domain, tuple(signs), tuple(cidx), tuple(payloads),
                          _counts_from_cells(cell_counts, symbols, far_start),
                          mult)


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
    hits = np.nonzero((hi_sum >= wlo) & (lo_sum <= whi))[0]
    far_start = _far_class_start(A.domain, len(A.components))
    return [_build_representation(A.domain, counts[i], symbols, A.components,
                                  far_start, p) for i in hits]


def count_ordered_tuples(target, p: int, A: FrequencySet) -> int:
    """Brute-force ordered count on the torus (oracle for small p)."""
    if A.domain != Domain.TORUS:
        raise ValueError("ordered counting is exact only on the torus")
    vals = [s * c for c in A.components for s in (+1, -1)]
    if len(vals) ** p > 10 ** 7:
        raise ResourceBudgetError("ordered oracle too large",
                                  len(vals) ** p, 10 ** 7)
    return sum(1 for tup in itertools.product(vals, repeat=p)
               if sum(tup) == target)


# -- beta enclosures --------------------------------------------------------

def _plain_beta_range(rep: Representation) -> BetaRange:
    lo = hi = 0.0
    for sgn, payload in zip(rep.signs, rep.payloads):
        a, b = dispersion(payload[0]), dispersion(payload[1])
        if sgn > 0:   # contributes -lambda(a_j)
            lo -= b
            hi -= a
        else:
            lo += a
            hi += b
    return BetaRange(lo, hi)


def _sum_lambda_min(S, m, lo, hi):
    # Jensen: lambda is convex (lambda''(a) = a(3+2a^2)/(1+a^2)^{3/2} > 0),
    # so the min of a fixed-total sum over a box sits at the equal split
    return m * dispersion(S / m)


def _sum_lambda_max(S, m, lo, hi):
    # convex sums over {sum = S} cap a box are maximized at vertices:
    # k slots at hi, one at the remainder, the rest at lo
    span = hi - lo
    if span <= 0.0:
        return m * dispersion(lo) + 0.0 * S
    k = np.clip(np.floor((S - m * lo) / span), 0, m - 1)
    r = S - k * hi - (m - 1 - k) * lo
    return k * dispersion(hi) + dispersion(r) + (m - 1 - k) * dispersion(lo)


def _slot_groups(rep: Representation):
    """(sign, slot count, lo, hi) per (class, sign) group of slots, in
    (class, sign) order."""
    groups = {}
    for sgn, ci, payload in zip(rep.signs, rep.class_indices, rep.payloads):
        key = (ci, sgn)
        if key not in groups:
            groups[key] = [0, payload]
        groups[key][0] += 1
    return [(sgn, m, payload[0], payload[1])
            for (ci, sgn), (m, payload) in sorted(groups.items())]


def _constrained_beta_range(items, window, n_cells: int):
    """Enclose beta over slot tuples whose signed sum lies in the window.

    items are the slot groups of one representation (_slot_groups); for
    each group only the group sum S matters: sum-of-lambda over the group
    is bounded by Jensen from below and by the majorization vertex from
    above, both monotone increasing in S. Scanning a grid of n_cells
    group-sum cells per group and keeping those that can meet the window
    yields a rigorous outer enclosure that tightens as the grid refines.
    Returns None when no cell is feasible.
    """
    g = len(items)
    edges = [np.linspace(m * lo, m * hi, n_cells + 1)
             for (_, m, lo, hi) in items]
    grids_lo = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
    grids_hi = np.meshgrid(*[e[1:] for e in edges], indexing="ij")
    S_lo = [a.ravel() for a in grids_lo]
    S_hi = [a.ravel() for a in grids_hi]

    tot_lo = sum(S_lo[i] if items[i][0] > 0 else -S_hi[i] for i in range(g))
    tot_hi = sum(S_hi[i] if items[i][0] > 0 else -S_lo[i] for i in range(g))
    wlo, whi = window
    feasible = (tot_hi >= wlo) & (tot_lo <= whi)
    if not np.any(feasible):
        return None

    beta_lo = np.zeros(int(feasible.sum()))
    beta_hi = np.zeros_like(beta_lo)
    for i, (sgn, m, lo, hi) in enumerate(items):
        sl, sh = S_lo[i][feasible], S_hi[i][feasible]
        lam_min = _sum_lambda_min(sl, m, lo, hi)
        lam_max = _sum_lambda_max(sh, m, lo, hi)
        if sgn > 0:   # beta gets -Lambda_group
            beta_lo -= lam_max
            beta_hi -= lam_min
        else:
            beta_lo += lam_min
            beta_hi += lam_max
    return BetaRange(float(beta_lo.min()), float(beta_hi.max()))


def beta_range(rep: Representation, *, window=None):
    """Enclose beta for one representation.

    Torus: exact point enclosure. Line: interval arithmetic over the slot
    classes; when the output window is supplied, the enclosure is refined
    to the window-constrained attainable set (see _constrained_beta_range).
    May return None in the windowed case when the refinement proves the
    pattern cannot reach the window at all.
    """
    return _beta_range(rep, window, _CELLS_BY_GROUPS)


def _beta_range(rep: Representation, window, cells_by_groups: dict):
    # beta_range, with the group-sum grid resolution looked up by the
    # number of slot groups in cells_by_groups
    if rep.domain == Domain.TORUS:
        b = rep.beta()
        return BetaRange(b, b)
    plain = _plain_beta_range(rep)
    if window is None or plain.sign_definite:
        # unconstrained IA is tight for the sign-definite patterns (the
        # class widths are tiny against |beta|), so skip the refinement
        return plain
    items = _slot_groups(rep)
    refined = _constrained_beta_range(items, window,
                                      cells_by_groups.get(len(items), 12))
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


def _audit_one_N(p, N, fset_fn, window_fn, cells_by_groups):
    """Representations reaching the window at this N, with beta verdicts
    (line enclosures refined on the cells_by_groups grid).

    Returns (entry dict, had_violation). Skips N where the witness set is
    degenerate (e.g. torus odd p with 2N == N+1).
    """
    try:
        A = fset_fn(N)
    except ValueError:
        return None, False
    window = window_fn(N)
    expected = _expected_beta_sign(p)
    scale = float(N) ** (1 if p % 2 == 0 else 2)
    ratios_lo, ratios_hi, violations = [], [], []
    n_reaching = 0
    for rep in enumerate_representations(window, p, A):
        br = _beta_range(rep, window, cells_by_groups)
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
                            fset_fn=None, window_fn=None,
                            scan_max=None) -> ResonanceReport:
    """Audit sign-definiteness of beta for every representation reaching
    the output window, across N.

    Reports |beta|/N (even p) or |beta|/N^2 (odd p) windows per N in
    N_list, every violation found, and N0: one past the largest N in a
    dense scan 1..max(N_list) that still shows a violation (1 if none do).
    fset_fn/window_fn override the witness defaults (used by negative
    controls); both take N. An empty N_list is refused.
    """
    if fset_fn is None:
        fset_fn = lambda N: _witness.frequency_set(
            _witness.WitnessConfig(domain, p, N, s=0.0))
    if window_fn is None:
        window_fn = lambda N: _witness.output_window(
            _witness.WitnessConfig(domain, p, N, s=0.0))
    wanted = set(int(N) for N in N_list)
    if not wanted:
        raise ValueError("need at least one N to audit, got an empty list")
    scan_hi = int(scan_max if scan_max is not None else max(wanted))

    last_bad = 0
    per_N = []
    # requested N beyond the dense-scan ceiling are still audited
    for N in sorted(set(range(1, scan_hi + 1)) | wanted):
        in_list = N in wanted
        entry, bad = _audit_one_N(p, N, fset_fn, window_fn,
                                  _CELLS_BY_GROUPS if in_list
                                  else _CELLS_BY_GROUPS_SCAN)
        if bad and N <= scan_hi:
            last_bad = N
        if in_list and entry is not None:
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


def pattern_sum_range(p: int, counts, N: int):
    """IA range of the signed sum for an odd-p line pattern (n1..n4).

    counts may also be an (n, 4) array of patterns; the bounds are then
    arrays, computed column by column.
    """
    cfg = _witness.WitnessConfig(Domain.LINE, p, N, s=0.0)
    (lo1, hi1), (lo2, hi2) = _witness.frequency_set(cfg).components
    n1, n2, n3, n4 = np.asarray(counts).T
    return (n1 * lo1 - n2 * hi1 + n3 * lo2 - n4 * hi2,
            n1 * hi1 - n2 * lo1 + n3 * hi2 - n4 * lo2)


@dataclass
class PatternReport:
    p: int
    N0: int
    per_N: list

    def to_dict(self) -> dict:
        return {"p": self.p, "N0": self.N0, "per_N": self.per_N}


def verify_pattern_constraints(p: int, N_list, *, scan_max=None) -> PatternReport:
    """Check that every unfiltered pattern whose sum range meets the odd-p
    window satisfies n1 > n2, n3 < n4 and n2 + n3 <= 2.

    Patterns are enumerated with no constraint at all; the report lists,
    per N, how many patterns intersect the window and which of those break
    a constraint. N0 is one past the largest scanned N with a violation.
    """
    if p % 2 == 0:
        raise ValueError("pattern constraints apply to odd p")
    N_list = sorted(int(N) for N in N_list)
    if not N_list:
        raise ValueError("need at least one N to audit, got an empty list")
    scan_hi = int(scan_max if scan_max is not None else max(N_list))
    counts = _multiset_counts(4, p)
    admissible = _admissible(counts)

    def audit(N):
        wlo, whi = _witness.output_window(
            _witness.WitnessConfig(Domain.LINE, p, N, s=0.0))
        lo, hi = pattern_sum_range(p, counts, N)
        meets = (hi >= wlo) & (lo <= whi)
        return int(meets.sum()), counts[meets & ~admissible].tolist()

    last_bad = 0
    for N in range(1, scan_hi + 1):
        _, bad = audit(N)
        if bad:
            last_bad = N
    per_N = []
    for N in N_list:
        inter, bad = audit(N)
        per_N.append({"N": N, "n_intersecting": inter, "violations": bad})
    return PatternReport(p, last_bad + 1, per_N)


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
