"""Oscillatory kernel, derivative profiles, and growth tables."""
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bqlab.errors import ResourceBudgetError
from bqlab.flow_derivative import (DerivativeProfile, flow_derivative,
                                   flow_derivative_line,
                                   flow_derivative_torus, growth_table,
                                   predicted_growth_slope, time_integral,
                                   window_sobolev_mass)
from bqlab.spectral import Domain, dispersion
from bqlab.witness import WitnessConfig, build_witness, frequency_set


def _quad_kernel(alpha, beta, t):
    re = quad(lambda u: math.sin(alpha * (t - u)) * math.cos(beta * u),
              0.0, t, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    im = quad(lambda u: math.sin(alpha * (t - u)) * math.sin(beta * u),
              0.0, t, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    return re + 1j * im


# -- the time integral ---------------------------------------------------------

def test_kernel_frozen_value():
    # K(1, 0, pi) = int_0^pi sin(pi - u) du = 2
    assert time_integral(1.0, 0.0, math.pi) == pytest.approx(2.0 + 0.0j,
                                                             abs=1e-14)


def test_kernel_vs_quadrature_nonresonant():
    val = time_integral(2.0, 1.0, 0.7)
    assert abs(val - _quad_kernel(2.0, 1.0, 0.7)) < 1e-10


def test_kernel_vs_quadrature_resonant():
    # beta = alpha hits the analytic-limit branch
    val = time_integral(1.0, 1.0, 1.0)
    assert abs(val - _quad_kernel(1.0, 1.0, 1.0)) < 1e-10
    val = time_integral(1.0, -1.0, 1.0)
    assert abs(val - _quad_kernel(1.0, -1.0, 1.0)) < 1e-10


def test_kernel_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(150):
        alpha = dispersion(rng.uniform(0.1, 5.0))
        beta = rng.uniform(-60.0, 60.0)
        t = rng.uniform(0.05, 2.0)
        val = time_integral(alpha, beta, t)
        ref = _quad_kernel(alpha, beta, t)
        assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))


def test_kernel_vectorized_over_beta():
    betas = np.array([-3.0, 0.0, 1.41, 7.7])
    out = time_integral(2.5, betas, 1.1)
    assert out.shape == betas.shape
    for b, v in zip(betas, out):
        assert v == pytest.approx(time_integral(2.5, float(b), 1.1), abs=1e-14)


def test_kernel_branch_continuity():
    # values just inside and just outside the resonant switch agree
    alpha = dispersion(3.0)
    b_in = alpha * math.sqrt(1.0 + 0.99e-8)
    b_out = alpha * math.sqrt(1.0 + 1.01e-8)
    v_in = time_integral(alpha, b_in, 1.3)
    v_out = time_integral(alpha, b_out, 1.3)
    assert abs(v_in - v_out) / abs(v_out) < 1e-6


def test_kernel_validation():
    with pytest.raises(ValueError):
        time_integral(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        time_integral(1.0, 0.0, -0.5)


# -- torus evaluation ------------------------------------------------------------

def _brute_force_torus(pair, p, t, sign=1):
    cfg = pair.config
    xi = int(pair.output_window)
    alpha = dispersion(xi)
    vals = [s * c for c in frequency_set(cfg).components for s in (1, -1)]
    total = 0.0 + 0.0j
    for tup in itertools.product(vals, repeat=p):
        if sum(tup) != xi:
            continue
        beta = -sum(np.sign(v) * dispersion(abs(v)) for v in tup)
        total += time_integral(alpha, float(beta), t)
    pref = sign * math.factorial(p) * xi ** 2 \
        / (cfg.N ** (p * cfg.sigma) * alpha)
    return pref * total


@pytest.mark.parametrize("p,N", [(2, 10), (2, 16), (3, 10), (3, 16)])
def test_torus_matches_ordered_bruteforce(p, N):
    pair = build_witness(WitnessConfig(Domain.TORUS, p, N, s=-1.0, sigma=0.0))
    for t in (0.7, 1.3):
        prof = flow_derivative_torus(pair, p, t)
        oracle = _brute_force_torus(pair, p, t)
        assert abs(prof.values[0] - oracle) <= 1e-12 * abs(oracle)


def test_torus_zero_at_t_zero():
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, 16, s=-1.0))
    prof = flow_derivative_torus(pair, 2, 0.0)
    assert prof.values[0] == 0.0


def test_torus_sign_flip():
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, 16, s=-1.0))
    plus = flow_derivative_torus(pair, 2, 1.0, sign=1).values[0]
    minus = flow_derivative_torus(pair, 2, 1.0, sign=-1).values[0]
    assert minus == pytest.approx(-plus, rel=1e-15)


def test_sigma_scaling_exact():
    # amplitude exponent enters only through N^{-p sigma}
    p, N, t = 3, 24, 0.9
    a = build_witness(WitnessConfig(Domain.TORUS, p, N, s=-1.0, sigma=0.0))
    b = build_witness(WitnessConfig(Domain.TORUS, p, N, s=-1.0, sigma=0.5))
    va = flow_derivative_torus(a, p, t).values[0]
    vb = flow_derivative_torus(b, p, t).values[0]
    assert vb == pytest.approx(va * N ** (-p * 0.5), rel=1e-13)


def test_torus_compensated_magnitude_stabilizes():
    # |value| ~ N^{-(2 sigma + 1)} for p = 2: the compensated sequence is
    # bounded and settles
    comp = []
    for N in (16, 32, 64, 128, 256, 512):
        pair = build_witness(WitnessConfig(Domain.TORUS, 2, N, s=-1.0,
                                           sigma=0.0))
        v = abs(flow_derivative_torus(pair, 2, 1.0).values[0])
        comp.append(v * N ** (2 * 0.0 + 1))
    comp = np.array(comp)
    assert comp.max() / comp.min() < 3.0
    assert abs(comp[-1] / comp[-2] - 1.0) < 0.05


def test_validation_mismatches():
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, 16, s=-1.0))
    with pytest.raises(ValueError):
        flow_derivative_torus(pair, 3, 1.0)          # wrong p
    with pytest.raises(ValueError):
        flow_derivative_torus(pair, 2, 5.0)          # t beyond horizon
    with pytest.raises(ValueError):
        flow_derivative_line(pair, 2, 1.0)           # wrong domain
    prof = flow_derivative_torus(pair, 2, 2.5, T=3.0)   # explicit horizon ok
    assert prof.t == 2.5


# -- line quadrature ---------------------------------------------------------------

def test_line_even_matches_quadrature_oracle():
    # p = 2: the pattern integral collapses to one exactly-clipped dimension,
    # independently recomputed here with adaptive quadrature
    N, t = 16, 1.0
    pair = build_witness(WitnessConfig(Domain.LINE, 2, N, s=-1.0, sigma=0.0))
    prof = flow_derivative_line(pair, 2, t)
    for idx in (4, 16, 28):
        xi = float(prof.xi[idx])
        alpha = dispersion(xi)

        def beta(y):
            return dispersion(y - xi) - dispersion(y)

        lo, hi = N + xi, N + 1.0
        re = quad(lambda y: time_integral(alpha, beta(y), t).real, lo, hi,
                  epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        im = quad(lambda y: time_integral(alpha, beta(y), t).imag, lo, hi,
                  epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        pref = 2 * xi ** 2 / dispersion(xi)   # p! = 2, N^{-p sigma} = 1
        oracle = 2.0 * pref * (re + 1j * im)  # multiplicity 2
        assert abs(prof.values[idx] - oracle) <= 5e-6 * abs(oracle)


def test_line_doubling_check():
    pair = build_witness(WitnessConfig(Domain.LINE, 2, 32, s=-1.0))
    prof = flow_derivative_line(pair, 2, 1.0, doubling_check=True)
    assert prof.meta["doubling_rel_diff"] < 1e-5
    assert prof.meta["warnings"] == []


def test_line_odd_compensated_magnitude_stabilizes():
    # |value(mid window)| ~ N^{-(3 sigma + 2)} for p = 3
    comp = []
    for N in (16, 32, 64, 128, 256):
        pair = build_witness(WitnessConfig(Domain.LINE, 3, N, s=-1.0,
                                           sigma=0.0))
        prof = flow_derivative_line(pair, 3, 1.0)
        mid = abs(prof.values[prof.xi.size // 2])
        comp.append(mid * N ** 2)
    comp = np.array(comp)
    assert comp.max() / comp.min() < 3.0
    assert abs(comp[-1] / comp[-2] - 1.0) < 0.1


def test_line_budget_guard():
    pair = build_witness(WitnessConfig(Domain.LINE, 13, 16, s=-1.0))
    with pytest.raises(ResourceBudgetError):
        flow_derivative_line(pair, 13, 1.0, method="tensor")


def test_line_mc_agrees_with_tensor():
    pair = build_witness(WitnessConfig(Domain.LINE, 4, 16, s=-1.0, sigma=0.0))
    ref = flow_derivative_line(pair, 4, 1.0, n_xi=9, nodes_per_dim=32)
    mc = flow_derivative_line(pair, 4, 1.0, n_xi=9, method="mc",
                              mc_samples=16384, seed=3)
    assert mc.meta["mc_halfwidth_max"] > 0.0
    scale = np.abs(ref.values).max()
    worst = np.abs(mc.values - ref.values).max()
    assert worst < max(4.0 * mc.meta["mc_halfwidth_max"], 1e-3 * scale)


def test_line_mc_deterministic_per_seed():
    pair = build_witness(WitnessConfig(Domain.LINE, 7, 12, s=-1.0))
    a = flow_derivative_line(pair, 7, 0.8, n_xi=5, mc_samples=2048, seed=11)
    b = flow_derivative_line(pair, 7, 0.8, n_xi=5, mc_samples=2048, seed=11)
    assert np.array_equal(a.values, b.values)
    assert a.meta["method"] == "mc"


def test_dispatcher():
    tor = build_witness(WitnessConfig(Domain.TORUS, 2, 12, s=-1.0))
    prof = flow_derivative(tor, 2, 1.0, doubling_check=True)  # kw dropped
    assert prof.meta["method"] == "exact-sum"
    lin = build_witness(WitnessConfig(Domain.LINE, 2, 12, s=-1.0))
    assert flow_derivative(lin, 2, 1.0).meta["method"] == "tensor"


# -- window mass --------------------------------------------------------------------

def test_window_mass_frozen_constant_profile():
    # a unit profile on [1/4, 1/2] has L^2 mass sqrt(1/4) = 1/2
    n = 40
    h = 0.25 / n
    xi = 0.25 + (np.arange(n) + 0.5) * h
    prof = DerivativeProfile(Domain.LINE, 2, 1.0, xi,
                             np.ones(n, dtype=complex), np.full(n, h), {})
    assert window_sobolev_mass(prof, 0.0) == pytest.approx(0.5, rel=1e-12)
    # and the mass is 1-homogeneous in the profile values
    prof2 = DerivativeProfile(Domain.LINE, 2, 1.0, xi, 3.0 * prof.values,
                              np.full(n, h), {})
    assert window_sobolev_mass(prof2, 0.0) == pytest.approx(1.5, rel=1e-12)


def test_window_mass_weighted_index():
    prof = DerivativeProfile(Domain.TORUS, 2, 1.0, np.array([1.0]),
                             np.array([2.0 + 0.0j]), np.array([1.0]), {})
    assert window_sobolev_mass(prof, -1.0) == pytest.approx(2.0 / math.sqrt(2))
    assert prof.hs_lower == pytest.approx(2.0)


def test_window_mass_empty_raises():
    prof = DerivativeProfile(Domain.LINE, 2, 1.0, np.array([]),
                             np.array([]), np.array([]), {})
    with pytest.raises(ValueError):
        window_sobolev_mass(prof, 0.0)


# -- growth tables -------------------------------------------------------------------

def test_predicted_slope_frozen():
    assert predicted_growth_slope(2, -1.0) == 1.0
    assert predicted_growth_slope(2, 0.0) == -1.0
    assert predicted_growth_slope(3, -1.0) == 1.0
    assert predicted_growth_slope(3, -2.0 / 3.0) == pytest.approx(0.0)
    assert predicted_growth_slope(4, -0.25) == pytest.approx(0.0)


def test_growth_table_torus_slope():
    table = growth_table(2, Domain.TORUS, -1.0, 0.0, 1.0, [16, 32, 64, 128])
    assert table.predicted_slope == 1.0
    assert abs(table.slope - 1.0) < 0.15
    assert math.isnan(table.records[0].slope_running)
    for r in table.records:
        assert r.ratio == pytest.approx(r.ap_norm / r.data_norm ** 2,
                                        rel=1e-12)


def test_growth_table_rejects_bad_sigma():
    with pytest.raises(ValueError):
        growth_table(2, Domain.TORUS, -1.0, -1.5, 1.0, [16, 32])


def test_growth_table_csv(tmp_path):
    table = growth_table(2, Domain.TORUS, -1.0, None, 1.0, [16, 32, 64])
    path = str(tmp_path / "g.csv")
    table.to_csv(path)
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "N,data_norm,ap_norm,ratio,slope_running"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "16" and first[4] == "nan"
    assert float(first[3]) == pytest.approx(table.records[0].ratio, rel=1e-10)
