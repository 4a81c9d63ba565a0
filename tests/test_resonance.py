"""Representation enumeration, beta enclosures, and the count bookkeeping."""
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bqlab import resonance, witness
from bqlab.acceptance import AUDIT_N
from bqlab.errors import ResourceBudgetError
from bqlab.resonance import (BetaRange, beta_range, closed_form_profiles,
                             construct_representation,
                             enumerate_representations, solve_diophantine,
                             verify_resonance_bounds)
from bqlab.spectral import Domain, FrequencySet, dispersion
from bqlab.witness import (WitnessConfig, attainable_triplet_range,
                           frequency_set, output_window, triplet_count)


def _torus_set(p, N):
    return frequency_set(WitnessConfig(Domain.TORUS, p, N, s=0.0))


def _line_set(p, N):
    return frequency_set(WitnessConfig(Domain.LINE, p, N, s=0.0))


def _tallies(target, p, A):
    """Sorted (n1, n2, n3, n4) of the representations reaching the target."""
    return sorted(rep.counts for rep in enumerate_representations(target, p, A))


def _window_tallies(p, N):
    """Sorted tallies of the odd-p line patterns reaching the window."""
    cfg = WitnessConfig(Domain.LINE, p, N, s=0.0)
    return _tallies(output_window(cfg), p, frequency_set(cfg))


def _all_tallies(p):
    """Every (n1, n2, n3, n4) >= 0 summing to p, by a triple loop."""
    return [(n1, n2, n3, p - n1 - n2 - n3)
            for n1 in range(p + 1) for n2 in range(p + 1 - n1)
            for n3 in range(p + 1 - n1 - n2)]


def _balanced(n1, n2, n3, n4):
    return n1 - n2 + 2 * (n3 - n4) == 0


def _admissible(n1, n2, n3, n4):
    return n1 > n2 and n3 < n4 and n2 + n3 <= 2


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


# -- enumeration ---------------------------------------------------------------

def test_enumerate_frozen_even():
    # xi = 1, p = 2, N = 50: only {+(N+1), -N}, standing for 2 ordered pairs
    reps = enumerate_representations(1, 2, _torus_set(2, 50))
    assert len(reps) == 1
    rep = reps[0]
    assert sorted(s * v for s, v in rep.slots) == [-50, 51]
    assert rep.multiplicity == 2
    assert rep.counts == (1, 1, 0, 0)


def test_enumerate_frozen_odd():
    # xi = 2, p = 3, N = 50: only {+(N+1), +(N+1), -2N}, 3 ordered tuples
    reps = enumerate_representations(2, 3, _torus_set(3, 50))
    assert len(reps) == 1
    rep = reps[0]
    assert sorted(s * v for s, v in rep.slots) == [-100, 51, 51]
    assert rep.multiplicity == 3
    assert rep.counts == (2, 0, 0, 1)


def test_enumerate_zero_mode_cancellation_pairs():
    reps = enumerate_representations(0, 2, _torus_set(2, 50))
    seen = sorted(tuple(sorted(s * v for s, v in r.slots)) for r in reps)
    assert seen == [(-51, 51), (-50, 50)]
    assert all(r.multiplicity == 2 for r in reps)


@pytest.mark.parametrize("p,N", [(2, 12), (3, 12), (4, 7), (5, 7)])
def test_enumeration_is_complete(p, N):
    # multiset multiplicities must recover the brute-force ordered count
    A = _torus_set(p, N)
    win = output_window(WitnessConfig(Domain.TORUS, p, N, s=0.0))
    for target in {win, 0, 1, N, 2 * N + 1}:
        reps = enumerate_representations(int(target), p, A)
        assert sum(r.multiplicity for r in reps) \
            == count_ordered_tuples(int(target), p, A)


@pytest.mark.parametrize("domain", [Domain.TORUS, Domain.LINE])
@pytest.mark.parametrize("p", range(2, 10))
def test_counts_and_multiplicity_recount_the_slots(domain, p):
    # counts and multiplicity are derived from count rows; recount both
    # from the slots alone, n3 and n4 being the slots in the far class
    for N in (3, 16, 64):
        cfg = WitnessConfig(domain, p, N, s=0.0)
        A = frequency_set(cfg)
        far = A.components[-1] if p % 2 == 1 else None
        zero = 0 if domain == Domain.TORUS else (0.0, 0.0)
        order = [(sgn, c) for sgn in (+1, -1) for c in A.components]
        # odd p on the line never reaches the zero mode
        for target in (output_window(cfg), zero):
            reps = enumerate_representations(target, p, A)
            assert reps or (target == zero and p % 2 == 1
                            and domain == Domain.LINE)
            for rep in reps:
                assert len(rep.slots) == p
                assert list(rep.slots) == sorted(rep.slots, key=order.index)
                tally = Counter((sgn, payload == far)
                                for sgn, payload in rep.slots)
                assert rep.counts == (tally[+1, False], tally[-1, False],
                                      tally[+1, True], tally[-1, True])
                repeats = Counter(rep.slots).values()
                assert rep.multiplicity == math.factorial(p) // math.prod(
                    math.factorial(m) for m in repeats)
                if domain == Domain.TORUS:
                    assert sum(sgn * v for sgn, v in rep.slots) == target


def test_enumeration_budget_guard():
    A = _line_set(2001, 50)
    with pytest.raises(ResourceBudgetError) as info:
        enumerate_representations((0.25, 0.5), 2001, A)
    assert info.value.estimated > info.value.budget


# -- beta values and enclosures ---------------------------------------------------

def test_beta_frozen_even():
    # p = 2, target 1, N = 10: beta = lambda(10) - lambda(11)
    rep = enumerate_representations(1, 2, _torus_set(2, 10))[0]
    assert rep.beta() == pytest.approx(-21.000214977850973, rel=1e-14)


def test_beta_frozen_odd():
    # p = 3, target 2, N = 10: beta = lambda(20) - 2 lambda(11)
    rep = enumerate_representations(2, 3, _torus_set(3, 10))[0]
    assert rep.beta() == pytest.approx(157.50174551189596, rel=1e-14)


def test_beta_range_torus_is_point():
    rep = enumerate_representations(1, 2, _torus_set(2, 16))[0]
    br = beta_range(rep)
    assert br.lo == br.hi == rep.beta()
    assert br.sign_definite


def _slot_loop_bounds(rep):
    """Reference: the interval bound of beta in a Python loop over the
    slots, -lambda(hi) .. -lambda(lo) per plus slot, the torus modes as
    points."""
    lo = hi = 0.0
    for sgn, payload in rep.slots:
        a, b = (payload, payload) if rep.domain == Domain.TORUS else payload
        la, lb = dispersion(a), dispersion(b)
        lo, hi = (lo - lb, hi - la) if sgn > 0 else (lo + la, hi + lb)
    return lo, hi


@pytest.mark.parametrize("domain", [Domain.TORUS, Domain.LINE])
def test_plain_enclosures_match_slot_loop(domain):
    # without a window, beta_range is the interval bound added slot by
    # slot in slot order, bit for bit; on the torus that is the exact beta
    tested = 0
    for p in range(2, 10):
        for N in (2, 3, 16, 100, 1000):
            A = frequency_set(WitnessConfig(domain, p, N, s=0.0))
            # the torus zero mode, every line pattern
            target = 0 if domain == Domain.TORUS else (-math.inf, math.inf)
            for rep in enumerate_representations(target, p, A):
                br = beta_range(rep)
                assert (br.lo, br.hi) == _slot_loop_bounds(rep)
                tested += 1
    assert tested > 200


def test_beta_range_line_even_frozen_bracket():
    # p = 2, N = 100: the window-constrained enclosure sits in
    # [-102.5, -48.5]; plain interval arithmetic would straddle zero
    A = _line_set(2, 100)
    reps = enumerate_representations((0.25, 0.5), 2, A)
    assert len(reps) == 1
    br = beta_range(reps[0], window=(0.25, 0.5))
    assert br.sign_definite
    assert -102.5 <= br.lo <= br.hi <= -48.5
    assert -br.hi > 47.0


def test_beta_range_soundness_random_tuples():
    # sampled tuples that land in the window must have beta inside the
    # enclosure; windows pruned to None must be unreachable
    p, N = 3, 20
    A = _line_set(p, N)
    window = output_window(WitnessConfig(Domain.LINE, p, N, s=0.0))
    rng = np.random.default_rng(42)
    tested = 0
    for rep in enumerate_representations(window, p, A):
        br = beta_range(rep, window=window)
        for _ in range(4000):
            signs = np.array([sgn for sgn, _ in rep.slots])
            xs = np.array([rng.uniform(lo, hi) for _, (lo, hi) in rep.slots])
            total = float(np.sum(signs * xs))
            if not (window[0] <= total <= window[1]):
                continue
            beta = float(np.sum(-signs * dispersion(xs)))
            assert br is not None, "sampled a tuple in a pruned pattern"
            assert br.lo - 1e-9 <= beta <= br.hi + 1e-9
            tested += 1
    assert tested > 100


@pytest.mark.parametrize("p", range(2, 10))
def test_refined_enclosures_hold_sampled_tuples(p):
    # free slots drawn uniformly, the widest slot solved from a uniform
    # target in the window and kept when it lands in its interval: beta
    # must lie in the enclosure. N = 1 is where the 3- and 4-group
    # enclosures of odd p arise
    rng = np.random.default_rng(p)
    tested = Counter()
    for N in (1, 2, 3, 5, 16, 64):
        cfg = WitnessConfig(Domain.LINE, p, N, s=0.0)
        window = output_window(cfg)
        for rep in enumerate_representations(window, p, frequency_set(cfg)):
            signs = np.array([sgn for sgn, _ in rep.slots], dtype=float)
            lo, hi = np.array([payload for _, payload in rep.slots]).T
            d = int(np.argmax(hi - lo))
            x = rng.uniform(lo, hi, size=(4000, p))
            rest = signs @ x.T - signs[d] * x[:, d]
            x[:, d] = signs[d] * (rng.uniform(*window, size=4000) - rest)
            x = x[(lo[d] <= x[:, d]) & (x[:, d] <= hi[d])]
            beta = -(dispersion(x) @ signs)
            tol = 1e-12 * dispersion(hi).sum()
            br = beta_range(rep, window=window)
            if br is None:
                assert len(x) == 0, "sampled a tuple in a pruned pattern"
                continue
            assert np.all(br.lo - tol <= beta) and np.all(beta <= br.hi + tol)
            tested[N] += len(x)
    assert len(tested) == 6 and min(tested.values()) > 100


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_window_only_shrinks_the_interval_bound(p):
    # windows about zero and at random: the windowed enclosure lies inside
    # the interval bound, where the exact range widened by its rounding
    # slack alone can stick out
    rng = np.random.default_rng(p)
    windows = [(-0.5, 0.5)] + [tuple(sorted(rng.uniform(-3.0, 3.0, 2)))
                               for _ in range(10)]
    for N in (1, 3, 16):
        for window in windows:
            for rep in enumerate_representations(window, p, _line_set(p, N)):
                plain, br = beta_range(rep), beta_range(rep, window=window)
                assert br is None or plain.lo <= br.lo <= br.hi <= plain.hi


def _attained_betas(rep, window, rng, n_draws=2000):
    """Inner oracle: betas of slot tuples in the window. Each slot in turn
    is solved from a window edge, the others at their bounds (every
    combination) or at a bound or a uniform draw each; a tuple is kept
    when the solved slot lands in its interval."""
    p = len(rep.slots)
    signs = np.array([sgn for sgn, _ in rep.slots], dtype=float)
    lo, hi = np.array([payload for _, payload in rep.slots]).T
    corners = np.array(list(itertools.product((0, 1), repeat=p)))
    draws = rng.integers(0, 3, size=(n_draws, p))
    choice = np.concatenate([corners, draws])
    x = np.where(choice == 0, lo, np.where(choice == 1, hi,
                                            rng.uniform(lo, hi, choice.shape)))
    betas = []
    for d in range(p):
        rest = x @ signs - signs[d] * x[:, d]
        for w in window:
            y = x.copy()
            y[:, d] = signs[d] * (w - rest)
            y = y[(lo[d] <= y[:, d]) & (y[:, d] <= hi[d])]
            betas.append(-(dispersion(y) @ signs))
    return np.concatenate(betas)


@pytest.mark.parametrize("p", range(2, 10))
def test_enclosures_hold_and_reach_attained_betas(p):
    # every attained beta lies in the enclosure; at p = 2 the extremes sit
    # where one slot is at a bound, so the oracle reaches both edges
    rng = np.random.default_rng(100 + p)
    reached = []
    for N in (1, 2, 3, 5, 16, 64):
        cfg = WitnessConfig(Domain.LINE, p, N, s=0.0)
        window = output_window(cfg)
        for rep in enumerate_representations(window, p, frequency_set(cfg)):
            br = beta_range(rep, window=window)
            beta = _attained_betas(rep, window, rng)
            assert br is not None and beta.size
            hi = np.array([payload[1] for _, payload in rep.slots])
            tol = 1e-12 * dispersion(hi).sum()
            assert br.lo - tol <= beta.min() and beta.max() <= br.hi + tol
            width = br.hi - br.lo
            reached.append(max(beta.min() - br.lo, br.hi - beta.max()) / width)
    if p == 2:
        assert max(reached) <= 1e-6


def _sum_lambda_min(S, m):
    # Jensen: the least sum of m lambdas with total S is the equal split
    return m * dispersion(S / m)


def _sum_lambda_max(S, m, lo, hi):
    # majorisation: the most is k slots at hi, one at the rest, others lo
    span = hi - lo
    if span <= 0.0:
        return m * dispersion(lo) + 0.0 * S
    k = np.clip(np.floor((S - m * lo) / span), 0, m - 1)
    r = S - k * hi - (m - 1 - k) * lo
    return k * dispersion(hi) + dispersion(r) + (m - 1 - k) * dispersion(lo)


def _dense_constrained_beta_range(items, window, n_cells: int):
    """Outer bound: cut each group's sum range into n_cells cells, keep the
    cell tuples that can meet the window, and bound each group's sum of
    lambdas over its cell by Jensen below and majorisation above."""
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
        lam_min = _sum_lambda_min(sl, m)
        lam_max = _sum_lambda_max(sh, m, lo, hi)
        if sgn > 0:   # beta gets -Lambda_group
            beta_lo -= lam_max
            beta_hi -= lam_min
        else:
            beta_lo += lam_min
            beta_hi += lam_max
    return BetaRange(float(beta_lo.min()), float(beta_hi.max()))


def _within(inner, outer, slack=0.0):
    # None is the empty enclosure; inner may stick out by the slack
    return inner is None or (outer is not None and outer.lo <= inner.lo + slack
                             and inner.hi - slack <= outer.hi)


def _assert_sandwich(exact, items, window, n_cells):
    """The exact enclosure within grid(n_cells) within grid(n_cells / 4).

    The exact ends move out by the solver's rounding bound, 8 p (p + 2)
    ulps of sum m lambda(hi), so they may stick out of a grid edge that is
    attained by that much, plus the grid's own rounding: twice the bound
    is allowed."""
    p = sum(m for _, m, _, _ in items)
    slack = 16 * p * (p + 2) * math.ulp(1.0) * sum(
        m * dispersion(hi) for _, m, _, hi in items)
    fine = _dense_constrained_beta_range(items, window, n_cells)
    coarse = _dense_constrained_beta_range(items, window, n_cells // 4)
    assert _within(exact, fine, slack) and _within(fine, coarse)


_GRID_CELLS = {2: 128, 3: 32, 4: 16}   # by the number of groups


def _one_row(items, window):
    """The batched enclosure of one row of slot groups, None if unreached."""
    shape = tuple((sgn, m) for sgn, m, _, _ in items)
    lo, hi = (np.array([[item[k] for item in items]]) for k in (2, 3))
    blo, bhi = resonance._constrained_beta_range(shape, lo, hi, window)
    return None if np.isnan(blo[0]) else BetaRange(float(blo[0]),
                                                   float(bhi[0]))


def test_constrained_enclosure_matches_dense_grid_on_audits(monkeypatch):
    # every row of every refined call of criterion 4's audits, so every N:
    # the exact enclosure lies inside the dense grid, which lies inside the
    # grid 4 times coarser
    seen = Counter()
    exact = resonance._constrained_beta_range

    def checked(shape, lo, hi, window):
        got_lo, got_hi = exact(shape, lo, hi, window)
        wlo, whi = (np.broadcast_to(w, len(lo)) for w in window)
        for i in range(len(lo)):
            items = [(sgn, m, a, b) for (sgn, m), a, b
                     in zip(shape, lo[i].tolist(), hi[i].tolist())]
            got = (None if np.isnan(got_lo[i])
                   else BetaRange(float(got_lo[i]), float(got_hi[i])))
            _assert_sandwich(got, items, (float(wlo[i]), float(whi[i])),
                             _GRID_CELLS[len(shape)])
            seen[len(shape)] += 1
        return got_lo, got_hi

    monkeypatch.setattr(resonance, "_constrained_beta_range", checked)
    for p in range(2, 10):
        for domain in (Domain.TORUS, Domain.LINE):
            verify_resonance_bounds(p, domain, AUDIT_N)
    monkeypatch.undo()
    assert set(seen) == {2, 3, 4} and sum(seen.values()) > 400


def _cell_sum(items, cells, n_cells, upper):
    """The signed-sum bound of one cell tuple, added in group order."""
    total = 0
    for (sgn, m, lo, hi), c in zip(items, cells):
        e = np.linspace(m * lo, m * hi, n_cells + 1)
        total = total + (e[c + upper] if sgn > 0 else -e[c + 1 - upper])
    return float(total)


@pytest.mark.parametrize("n_cells", [7, 16, 24, 64, 128])
def test_constrained_enclosure_matches_dense_grid_random(n_cells):
    # random groups; windows (a quarter of them of width 0) drawn at random
    # or with one end placed exactly on a cell tuple's sum bound
    rng = np.random.default_rng(n_cells)
    most_groups = {7: 4, 16: 4, 24: 3, 64: 2, 128: 2}[n_cells]
    outcomes = Counter()
    for trial in range(120):
        g = int(rng.integers(1, most_groups + 1))
        items = []
        for _ in range(g):
            lo = float(rng.uniform(0.2, 60.0))
            items.append((int(rng.choice([-1, 1])), int(rng.integers(1, 5)),
                          lo, lo + float(rng.uniform(0.01, 3.0))))
        width = float(rng.exponential(2.0)) * (trial % 4 != 0)
        cells = rng.integers(0, n_cells, size=g)
        if trial % 3 == 0:
            wlo = _cell_sum(items, cells, n_cells, upper=1)
            window = (wlo, wlo + width)
        elif trial % 3 == 1:
            whi = _cell_sum(items, cells, n_cells, upper=0)
            window = (whi - width, whi)
        else:
            reach = sum(m * (hi if s > 0 else lo) * s for s, m, lo, hi in items)
            mid = float(rng.uniform(-abs(reach), abs(reach)))
            window = (mid - width, mid + width)
        exact = _one_row(items, window)
        _assert_sandwich(exact, items, window, n_cells)
        outcomes[exact is None] += 1
    assert outcomes[False] > 60 and outcomes[True] > 0


@pytest.mark.parametrize("shape", [((-1, 2), (1, 1)),
                                   ((1, 2), (-1, 1), (1, 2)),
                                   ((-1, 1), (1, 3), (-1, 2), (1, 1))])
def test_constrained_enclosure_rows_match_one_row_calls(shape):
    # rows of one shape with their own intervals and windows, some out of
    # reach: each row's enclosure has the bits of its one-row call
    rng = np.random.default_rng(len(shape))
    lo = rng.uniform(0.2, 60.0, size=(40, len(shape)))
    hi = lo + rng.uniform(0.01, 3.0, size=lo.shape)
    sgn, m = np.array(shape).T
    reach = (np.where(sgn > 0, hi, lo) * sgn * m).sum(axis=1)
    mid = rng.uniform(-1.5, 1.5, size=40) * np.abs(reach)
    width = rng.exponential(2.0, size=40)
    window = (mid - width, mid + width)
    got_lo, got_hi = resonance._constrained_beta_range(shape, lo, hi, window)
    missed = 0
    for i in range(40):
        items = [(s, k, a, b) for (s, k), a, b in zip(shape, lo[i], hi[i])]
        one = _one_row(items, (window[0][i], window[1][i]))
        if one is None:
            assert np.isnan(got_lo[i]) and np.isnan(got_hi[i])
            missed += 1
        else:
            assert (got_lo[i], got_hi[i]) == (one.lo, one.hi)
    assert 0 < missed < 40


def test_beta_range_rejects_inverted():
    with pytest.raises(ValueError):
        BetaRange(1.0, 0.0)


# -- the resonance audit ------------------------------------------------------------

def test_audit_even_torus():
    report = verify_resonance_bounds(2, Domain.TORUS, [64])
    assert report.scale_power == 1
    entry = report.per_N[0]
    assert entry["N"] == 64 and entry["n_representations"] == 1
    assert entry["violations"] == []
    expect = (dispersion(65) - dispersion(64)) / 64.0
    assert entry["beta_over_scale_min"] == pytest.approx(expect, rel=1e-12)


def test_audit_odd_torus_expansion():
    # beta / N^2 = 2 - 4/N - 2.5/N^2 exactly for the single representation
    report = verify_resonance_bounds(3, Domain.TORUS, [512])
    entry = report.per_N[0]
    assert entry["n_representations"] == 1
    assert entry["beta_over_scale_min"] == pytest.approx(1.992177963260005,
                                                         rel=1e-12)
    expansion = 2.0 - 4.0 / 512.0 - 2.5 / 512.0 ** 2
    assert entry["beta_over_scale_min"] == pytest.approx(expansion, abs=2e-8)
    assert report.N0 <= 16


def test_audit_stabilizes_across_domains():
    for p in (2, 3):
        for domain in (Domain.TORUS, Domain.LINE):
            report = verify_resonance_bounds(p, domain, [16, 64])
            assert report.N0 <= 16
            for entry in report.per_N:
                assert entry["violations"] == []
                if entry["n_representations"]:
                    assert entry["beta_over_scale_min"] > 0


def test_audit_negative_control_wrong_set(monkeypatch):
    # feeding the even-p interval to an odd-p window: nothing reaches it,
    # and the nearest attainable sum is ~N away
    wrong = lambda cfg: FrequencySet(Domain.LINE,
                                     ((float(cfg.N), float(cfg.N + 1)),))
    monkeypatch.setattr("bqlab.witness.frequency_set", wrong)
    report = verify_resonance_bounds(3, Domain.LINE, [64], scan_max=4)
    entry = report.per_N[0]
    assert entry["n_representations"] == 0
    assert entry["nearest_gap"] > 64 / 2


# -- diophantine bookkeeping ----------------------------------------------------------

def test_solve_diophantine_frozen():
    assert solve_diophantine(3) == [(2, 0, 0, 1)]
    assert solve_diophantine(5) == [(2, 0, 1, 2), (3, 1, 0, 1)]
    assert solve_diophantine(7) == [(2, 0, 2, 3), (3, 1, 1, 2), (4, 2, 0, 1)]


def test_solve_diophantine_matches_closed_form():
    for p in range(3, 27, 2):
        assert solve_diophantine(p) == closed_form_profiles(p)


def test_solve_diophantine_rejects_even():
    with pytest.raises(ValueError):
        solve_diophantine(4)
    with pytest.raises(ValueError):
        closed_form_profiles(6)


def test_excluded_class_stays_below_window():
    # balanced tallies with n2 + n3 = 3 reach at most 1 - 4/p + 6/(4p^2),
    # strictly below the window
    p = 9
    bound = 1.0 - 4.0 / p + 6.0 / (4.0 * p * p)
    window = output_window(WitnessConfig(Domain.LINE, p, 50, s=0.0))
    excluded = {c for c in _all_tallies(p)
                if _balanced(*c) and c[1] + c[2] == 3}
    assert len(excluded) == 4
    for N in (10, 50, 1000):
        A = _line_set(p, N)
        assert excluded <= set(_tallies((-math.inf, math.inf), p, A))
        assert not excluded & set(_tallies((bound + 1e-12, math.inf), p, A))
    assert bound < window[0]


def test_pattern_constraint_audit():
    # from N = 2 on, every pattern reaching the window is admissible
    for p in (3, 9):
        for N in range(2, 51):
            assert all(_admissible(*c) for c in _window_tallies(p, N))
        assert len(_window_tallies(p, 50)) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_count_vector_audits_match_triple_loop(p):
    # independent enumeration of (n1, n2, n3, n4) with its own interval sums
    tallies = _all_tallies(p)
    assert solve_diophantine(p) == sorted(
        c for c in tallies if _balanced(*c) and _admissible(*c))

    for N in range(1, 61):
        (lo1, hi1), (lo2, hi2) = _line_set(p, N).components
        wlo, whi = output_window(WitnessConfig(Domain.LINE, p, N, s=0.0))
        meeting = [(n1, n2, n3, n4) for n1, n2, n3, n4 in tallies
                   if n1 * hi1 - n2 * lo1 + n3 * hi2 - n4 * lo2 >= wlo
                   and n1 * lo1 - n2 * hi1 + n3 * lo2 - n4 * hi2 <= whi]
        assert _window_tallies(p, N) == sorted(meeting)


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11])
def test_window_reaching_tallies_are_the_diophantine_profiles(p):
    # the balance and admissibility constraints are exactly what reaching
    # the window imposes (at N = 1, and N = 2 for p = 5 and 11, other
    # tallies reach it too)
    profiles = solve_diophantine(p)
    for N in range(3, 65):
        assert _window_tallies(p, N) == profiles


def _audit_one_N_at_a_time(p, domain, N_list, scan_max=None):
    """Reference audit: (N0, per_N) from one N at a time through the
    public enumerate_representations and beta_range, the nearest gap from
    every multiset of p signed components. The set is looked up through
    the witness module, so a patched one is seen."""
    wanted = set(N_list)
    scan_hi = scan_max or max(wanted)
    last_bad, per_N = 0, []
    for N in sorted(set(range(1, scan_hi + 1)) | wanted):
        cfg = WitnessConfig(domain, p, N, s=0.0)
        try:
            A = witness.frequency_set(cfg)
        except ValueError:    # odd p on the torus at N = 1
            continue
        window = output_window(cfg)
        scale = float(N) ** (1 if p % 2 == 0 else 2)
        lows, highs, violations = [], [], []
        for rep in enumerate_representations(window, p, A):
            br = beta_range(rep, window=window)
            if br is None:
                continue
            if br.lo >= 0.0:
                alo, ahi = br.lo, br.hi
            elif br.hi <= 0.0:
                alo, ahi = -br.hi, -br.lo
            else:
                alo, ahi = 0.0, max(-br.lo, br.hi)
            lows.append(alo / scale)
            highs.append(ahi / scale)
            if not (br.hi < 0.0 if p % 2 == 0 else br.lo > 0.0):
                violations.append({"counts": list(rep.counts),
                                   "multiplicity": rep.multiplicity,
                                   "beta_lo": br.lo, "beta_hi": br.hi})
        if violations and N <= scan_hi:
            last_bad = N
        if N not in wanted:
            continue
        entry = {"N": N, "n_representations": len(lows),
                 "beta_over_scale_min": min(lows) if lows else None,
                 "beta_over_scale_max": max(highs) if highs else None,
                 "violations": violations}
        if not lows:
            wlo, whi = (window,) * 2 if domain == Domain.TORUS else window
            ends = [(a, a) if domain == Domain.TORUS else (a[0], a[1])
                    for a in A.components]
            signed = [e for e in ends] + [(-b, -a) for a, b in ends]
            entry["nearest_gap"] = float(min(
                max(wlo - math.fsum(b for _, b in combo),
                    math.fsum(a for a, _ in combo) - whi, 0.0)
                for combo in itertools.combinations_with_replacement(
                    signed, p)))
        per_N.append(entry)
    return last_bad + 1, per_N


_AUDIT_CASES = ([(p, domain, 128) for p in range(2, 10)
                 for domain in (Domain.TORUS, Domain.LINE)]
                + [(3, Domain.TORUS, 512)])


@pytest.mark.parametrize("p,domain,N_max", _AUDIT_CASES)
def test_audit_matches_one_N_at_a_time(p, domain, N_max):
    # every N of the scan reported: entries, violation records, nearest
    # gaps and N0 equal the reference bit for bit; odd p on the torus
    # starts at N = 2, and the scan skips N = 1
    first = 2 if p % 2 and domain == Domain.TORUS else 1
    N_list = range(first, N_max + 1)
    report = verify_resonance_bounds(p, domain, N_list)
    N0, per_N = _audit_one_N_at_a_time(p, domain, N_list)
    assert [e["N"] for e in report.per_N] == list(N_list)
    assert report.per_N == per_N and report.N0 == N0


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("domain", [Domain.TORUS, Domain.LINE])
def test_audit_matches_one_N_at_a_time_unreached(monkeypatch, p, domain):
    # the even-p set under an odd-p window: past the first few N nothing
    # reaches it, and the entries report their nearest gap; one N per
    # block, so that most blocks have no hit at all
    def wrong(cfg):
        N = cfg.N
        return FrequencySet(domain, (N, N + 1) if domain == Domain.TORUS
                            else ((float(N), float(N + 1)),))

    monkeypatch.setattr("bqlab.witness.frequency_set", wrong)
    monkeypatch.setattr(resonance, "AUDIT_BLOCK", 1)
    report = verify_resonance_bounds(p, domain, range(1, 65))
    N0, per_N = _audit_one_N_at_a_time(p, domain, range(1, 65))
    assert sum("nearest_gap" in e for e in per_N) >= 55
    assert report.per_N == per_N and report.N0 == N0


@pytest.mark.parametrize("block", [1, 50, 2 ** 11])
@pytest.mark.parametrize("p,domain", [(2, Domain.LINE), (3, Domain.TORUS),
                                      (5, Domain.LINE), (8, Domain.TORUS)])
def test_audit_blocks_split_anywhere(monkeypatch, block, p, domain):
    # blocks of one N, a few N and many N (the count rows of p = 8 on the
    # torus alone outgrow 50 entries); requested N inside and beyond a
    # dense scan whose violations only N0 reports
    monkeypatch.setattr(resonance, "AUDIT_BLOCK", block)
    N_list, scan_max = [3, 16, 40, 90], 24
    report = verify_resonance_bounds(p, domain, N_list, scan_max=scan_max)
    N0, per_N = _audit_one_N_at_a_time(p, domain, N_list, scan_max)
    assert report.per_N == per_N and report.N0 == N0


def test_audit_memory_stays_flat():
    # 2,002 multisets x 1,024 N would be 16 MB per array at once; blocks of
    # AUDIT_BLOCK entries keep the peak at a few arrays of 0.25 MB
    verify_resonance_bounds(9, Domain.TORUS, [8])    # warm the caches
    tracemalloc.start()
    try:
        report = verify_resonance_bounds(9, Domain.TORUS, [1024])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.per_N[0]["n_representations"] > 0
    assert peak < 2 * 2 ** 20


def test_audit_budget_counts_scanned_n():
    # refused before any N is audited: 10 multisets x 10^9 N
    with pytest.raises(ResourceBudgetError, match="at 1000000000 N") as info:
        verify_resonance_bounds(2, Domain.TORUS, [16], scan_max=10 ** 9)
    assert info.value.estimated == 10 ** 10


def test_audits_refuse_empty_n_list():
    with pytest.raises(ValueError, match="empty"):
        verify_resonance_bounds(2, Domain.TORUS, [])


@pytest.mark.parametrize("p", [1, 0, -3])
def test_resonance_audit_refuses_p_below_two(p):
    # every N would be skipped as degenerate: N0 = 1 and no entries
    for domain in (Domain.TORUS, Domain.LINE):
        with pytest.raises(ValueError, match="p must be an integer >= 2"):
            verify_resonance_bounds(p, domain, [16, 32])


@pytest.mark.parametrize("N_list", [[-5, 0], [0, 16]])
def test_resonance_audit_refuses_n_below_one(N_list):
    # N <= 0 has no witness set, so the audit would drop it without a word
    with pytest.raises(ValueError, match="need every N >= 1"):
        verify_resonance_bounds(2, Domain.TORUS, N_list)


@pytest.mark.parametrize("N_list", [[1], [1, 16]])
def test_resonance_audit_refuses_degenerate_n(N_list):
    # odd p on the torus at N = 1 has 2N = N + 1: the audit dropped the
    # entry without a word; the dense scan still skips it
    with pytest.raises(ValueError, match="needs N >= 2"):
        verify_resonance_bounds(3, Domain.TORUS, N_list)
    report = verify_resonance_bounds(3, Domain.TORUS, [2], scan_max=3)
    assert [e["N"] for e in report.per_N] == [2]


@pytest.mark.parametrize("scan_max", [0, -5])
def test_audits_refuse_scan_max_below_one(scan_max):
    # a dense scan of nothing would report N0 = 1, clean from N = 1 on
    with pytest.raises(ValueError, match="scan_max >= 1"):
        verify_resonance_bounds(2, Domain.TORUS, [16], scan_max=scan_max)


def test_triplet_tally_reaches_exactly_the_triplet_range():
    # the (2,0,0,1) tally is exactly one triplet a + b - c: it reaches
    # every target in the attainable range and nothing beyond it
    for p in (3, 9):
        A = _line_set(p, 40)
        tlo, thi = attainable_triplet_range(p, 40)
        for target in ((tlo, tlo), (thi, thi)):
            assert (2, 0, 0, 1) in _tallies(target, 3, A)
        for target in ((-math.inf, tlo - 1e-12), (thi + 1e-12, math.inf)):
            assert (2, 0, 0, 1) not in _tallies(target, 3, A)


# -- constructive representability ------------------------------------------------------

@pytest.mark.parametrize("p,fillers", [(3, 0), (5, 1), (7, 2), (9, 0)])
def test_construct_representation(p, fillers):
    N = 30
    window = output_window(WitnessConfig(Domain.LINE, p, N, s=0.0))
    xi = 0.5 * (window[0] + window[1])
    rep = construct_representation(xi, p, N)
    assert rep.defect < 1e-9
    assert len(rep.slots) == p
    assert rep.fillers == fillers
    assert len(rep.triplets) == triplet_count(p)
    total = sum(s * v for s, v in rep.slots)
    assert total == pytest.approx(xi, abs=1e-9)
    (lo1, hi1), (lo2, hi2) = _line_set(p, N).components
    for _, v in rep.slots:
        assert (lo1 - 1e-9 <= v <= hi1 + 1e-9) \
            or (lo2 - 1e-9 <= v <= hi2 + 1e-9)


def test_construct_covers_window_edges():
    p, N = 9, 25
    window = output_window(WitnessConfig(Domain.LINE, p, N, s=0.0))
    for frac in (0.01, 0.5, 0.99):
        xi = window[0] + frac * (window[1] - window[0])
        rep = construct_representation(xi, p, N)
        assert rep.defect < 1e-9


def test_construct_rejects_unreachable():
    with pytest.raises(ValueError):
        construct_representation(10.0, 3, 30)
    with pytest.raises(ValueError):
        construct_representation(0.5, 4, 30)
