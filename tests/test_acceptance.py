"""Acceptance gate: the eight headline checks, one pass/fail line each.

Each test drives the same criterion function exposed by the reproduce-all
subcommand and prints its [PASS]/[FAIL] line plus the measured details, so a
verbose pytest run doubles as the acceptance report.
"""
import pytest

from bqlab.acceptance import (criterion_1, criterion_2, criterion_3,
                              criterion_4, criterion_5, criterion_6,
                              criterion_7, criterion_8)


def _run(criterion):
    result = criterion()
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "\n".join([result.line()] + result.details)
    assert type(result.passed) is bool      # the CLI writes it to JSON
    return result


def test_criterion_1_even_exponent_fit():
    # p = 2, both domains, s in {-1, -0.75}, three measurement times,
    # slope within 0.15 of -(2s + 1) for at least two of the three times
    result = _run(criterion_1)
    assert result.elapsed < 60.0


def test_criterion_2_odd_exponent_fit():
    # p = 3: torus within 0.15 of -(3s + 2), line quadrature within 0.25
    result = _run(criterion_2)
    assert result.elapsed < 600.0


def test_criterion_3_threshold_sign_change():
    # fitted slope flips sign across the critical index on both sides
    _run(criterion_3)


def test_criterion_4_resonance_bounds():
    # p in 2..9, both domains: sign-definite window phases from small N0 on,
    # and the odd-p torus phase grows like 2 N^2
    _run(criterion_4)


def test_criterion_5_diophantine():
    # brute-force tallies equal the closed forms through p = 25, and the
    # constructive representation covers the window
    _run(criterion_5)


def test_criterion_6_kernel_and_probe():
    # closed-form kernel vs quadrature at 1e-9; exact functional vs the
    # nonlinear-solver probe at 1%
    _run(criterion_6)


def test_criterion_7_simulator_integrity():
    # exact linear propagation, 4th-order self-convergence, energy drift
    _run(criterion_7)


def test_criterion_8_norm_inflation():
    # fixed-size data: windowed norm grows across N at s = -0.6 and stays
    # bounded at s = 0
    result = _run(criterion_8)
    assert result.elapsed < 300.0
