"""Representation enumeration, beta enclosures, and the count bookkeeping."""
import itertools
import math

import numpy as np
import pytest

from bqlab.errors import ResourceBudgetError
from bqlab.resonance import (BetaRange, beta_range, closed_form_profiles,
                             construct_representation, count_ordered_tuples,
                             enumerate_representations, pattern_sum_range,
                             solve_diophantine, verify_pattern_constraints,
                             verify_resonance_bounds)
from bqlab.spectral import Domain, FrequencySet, SetSign, dispersion
from bqlab.witness import (WitnessConfig, attainable_triplet_range,
                           frequency_set, output_window, triplet_count)


def _torus_set(p, N):
    return frequency_set(WitnessConfig(Domain.TORUS, p, N, s=0.0))


def _line_set(p, N):
    return frequency_set(WitnessConfig(Domain.LINE, p, N, s=0.0))


# -- enumeration ---------------------------------------------------------------

def test_enumerate_frozen_even():
    # xi = 1, p = 2, N = 50: only {+(N+1), -N}, standing for 2 ordered pairs
    reps = enumerate_representations(1, 2, _torus_set(2, 50))
    assert len(reps) == 1
    rep = reps[0]
    assert sorted(s * v for s, v in zip(rep.signs, rep.payloads)) == [-50, 51]
    assert rep.multiplicity == 2
    assert rep.counts == (1, 1, 0, 0)
    assert rep.signed_sum() == 1


def test_enumerate_frozen_odd():
    # xi = 2, p = 3, N = 50: only {+(N+1), +(N+1), -2N}, 3 ordered tuples
    reps = enumerate_representations(2, 3, _torus_set(3, 50))
    assert len(reps) == 1
    rep = reps[0]
    assert sorted(s * v for s, v in zip(rep.signs, rep.payloads)) \
        == [-100, 51, 51]
    assert rep.multiplicity == 3
    assert rep.counts == (2, 0, 0, 1)


def test_enumerate_zero_mode_cancellation_pairs():
    reps = enumerate_representations(0, 2, _torus_set(2, 50))
    seen = sorted(tuple(sorted(s * v for s, v in zip(r.signs, r.payloads)))
                  for r in reps)
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
            xs = np.array([rng.uniform(lo, hi) for lo, hi in rep.payloads])
            total = float(np.sum(np.array(rep.signs) * xs))
            if not (window[0] <= total <= window[1]):
                continue
            beta = float(np.sum(-np.array(rep.signs) * dispersion(xs)))
            assert br is not None, "sampled a tuple in a pruned pattern"
            assert br.lo - 1e-9 <= beta <= br.hi + 1e-9
            tested += 1
    assert tested > 100


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


def test_audit_negative_control_wrong_set():
    # feeding the even-p interval to an odd-p window: nothing reaches it,
    # and the nearest attainable sum is ~N away
    wrong = lambda N: FrequencySet(Domain.LINE,
                                   ((float(N), float(N + 1)),), SetSign.PLUS)
    report = verify_resonance_bounds(
        3, Domain.LINE, [64],
        fset_fn=wrong,
        window_fn=lambda N: output_window(
            WitnessConfig(Domain.LINE, 3, N, s=0.0)),
        scan_max=4)
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
    found = 0
    for n1 in range(p + 1):
        for n2 in range(p + 1 - n1):
            for n3 in range(p + 1 - n1 - n2):
                n4 = p - n1 - n2 - n3
                if n1 - n2 + 2 * (n3 - n4) != 0 or n2 + n3 != 3:
                    continue
                found += 1
                for N in (10, 50, 1000):
                    _, hi = pattern_sum_range(p, (n1, n2, n3, n4), N)
                    assert hi <= bound + 1e-12
    assert found == 4
    assert bound < window[0]


def test_pattern_constraint_audit():
    for p in (3, 9):
        report = verify_pattern_constraints(p, [50], scan_max=50)
        assert report.N0 <= 2
        entry = report.per_N[0]
        assert entry["violations"] == []
        assert entry["n_intersecting"] == 1


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_count_vector_audits_match_triple_loop(p):
    # independent enumeration of (n1, n2, n3, n4) with its own interval sums
    def admissible(n1, n2, n3, n4):
        return n1 > n2 and n3 < n4 and n2 + n3 <= 2

    tallies = [(n1, n2, n3, p - n1 - n2 - n3)
               for n1 in range(p + 1) for n2 in range(p + 1 - n1)
               for n3 in range(p + 1 - n1 - n2)]
    assert solve_diophantine(p) == sorted(
        c for c in tallies
        if c[0] - c[1] + 2 * (c[2] - c[3]) == 0 and admissible(*c))

    N_max = 60
    report = verify_pattern_constraints(p, range(1, N_max + 1),
                                        scan_max=N_max)
    last_bad = 0
    for entry in report.per_N:
        N = entry["N"]
        (lo1, hi1), (lo2, hi2) = _line_set(p, N).components
        wlo, whi = output_window(WitnessConfig(Domain.LINE, p, N, s=0.0))
        meeting = [(n1, n2, n3, n4) for n1, n2, n3, n4 in tallies
                   if n1 * hi1 - n2 * lo1 + n3 * hi2 - n4 * lo2 >= wlo
                   and n1 * lo1 - n2 * hi1 + n3 * lo2 - n4 * hi2 <= whi]
        bad = [list(c) for c in meeting if not admissible(*c)]
        assert entry["n_intersecting"] == len(meeting)
        assert entry["violations"] == bad
        if bad:
            last_bad = N
    assert [e["N"] for e in report.per_N] == list(range(1, N_max + 1))
    assert report.N0 == last_bad + 1


def test_audits_refuse_empty_n_list():
    with pytest.raises(ValueError, match="empty"):
        verify_resonance_bounds(2, Domain.TORUS, [])
    with pytest.raises(ValueError, match="empty"):
        verify_pattern_constraints(3, [], scan_max=5)


def test_pattern_sum_range_matches_triplet_range():
    # the (2,0,0,1) tally is exactly one triplet a + b - c
    for p in (3, 9):
        lo, hi = pattern_sum_range(p, (2, 0, 0, 1), 40)
        tlo, thi = attainable_triplet_range(p, 40)
        assert lo == pytest.approx(tlo, abs=1e-12)
        assert hi == pytest.approx(thi, abs=1e-12)


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
