"""Oscillatory kernel, derivative profiles, and growth tables."""
import itertools
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bqlab import flow_derivative, workers
from bqlab.acceptance import NEAR_RESONANCE, _mp_kernel
from bqlab.flow_derivative import (DEFAULT_HORIZON, DerivativeProfile,
                                   _representative_slots,
                                   flow_derivative_line,
                                   flow_derivative_torus, growth_table,
                                   growth_tables, predicted_growth_slope,
                                   time_integral,
                                   window_sobolev_mass)
from bqlab.resonance import enumerate_representations
from bqlab.spectral import Domain, dispersion
from bqlab.witness import WitnessConfig, build_witness, frequency_set

# the most betas a profile at production resolutions hands the kernel in
# one call (test_kernel_calls_stay_within_kernel_block)
KERNEL_BLOCK = 8192


def _quad_kernel(alpha, beta, t):
    re = quad(lambda u: math.sin(alpha * (t - u)) * math.cos(beta * u),
              0.0, t, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    im = quad(lambda u: math.sin(alpha * (t - u)) * math.sin(beta * u),
              0.0, t, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    return re + 1j * im


# -- the time integral ---------------------------------------------------------

def _tangent_sin_cos(y):
    """sin y and cos y from h = tan(y/2), one pass per operation."""
    h = np.tan(y * 0.5)
    return 2.0 * h / (1.0 + h * h), (1.0 - h * h) / (1.0 + h * h)


def _libm_sin_cos(y):
    return np.sin(y), np.cos(y)


def _reference_kernel(alpha, beta, t, sin_cos=_tangent_sin_cos):
    """The kernel as one pass per operation over the whole broadcast
    array, with the masked divide at resonance; sin_cos=_libm_sin_cos
    gives the earlier kernel, which took sin Y and cos Y from libm."""
    a, b = float(alpha), np.asarray(beta, dtype=float)
    out = np.zeros(b.shape, dtype=complex)
    if a * t > 0.0:
        sin_at, cos_at = math.sin(a * t), math.cos(a * t)
        abs_b = np.abs(b)
        plus, minus = abs_b + a, abs_b - a
        y = minus * (0.5 * t)
        sin_y, cos_y = sin_cos(y)
        u = (sin_y * cos_at + cos_y * sin_at) / plus
        cos_x = cos_y * cos_at - sin_y * sin_at
        w = np.divide(sin_y, minus, out=np.full_like(y, 0.5 * t),
                      where=minus != 0.0)
        out.real = 2.0 * a * u * w
        out.imag = np.sign(b) * (u * cos_y - w * cos_x)
    return out


def test_kernel_frozen_value():
    # K(1, 0, pi) = int_0^pi sin(pi - u) du = 2
    assert time_integral(1.0, 0.0, math.pi) == pytest.approx(2.0 + 0.0j,
                                                             abs=1e-14)


def test_kernel_vs_quadrature_nonresonant():
    val = time_integral(2.0, 1.0, 0.7)
    assert abs(val - _quad_kernel(2.0, 1.0, 0.7)) < 1e-10


def test_kernel_vs_quadrature_resonant():
    # beta = +-alpha: the resonance, where the half-angle Y vanishes
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


def test_kernel_near_resonant_band():
    # beta = +-alpha and +-alpha (1 +- 10^-k), k = 1..14, where
    # beta^2 - alpha^2 cancels to few or no digits in floating point
    rng = np.random.default_rng(11)
    for _ in range(6):
        alpha = dispersion(rng.uniform(0.1, 6.0))
        t = rng.uniform(0.05, 2.0)
        for beta in alpha * NEAR_RESONANCE:
            ref = _mp_kernel(alpha, beta, t)
            val = time_integral(alpha, beta, t)
            assert abs(val - ref) <= 1e-12 * abs(ref), (alpha, beta, t)


def test_kernel_vanishes_at_zero_alpha_or_time():
    betas = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
    for alpha, t in ((0.0, 1.3), (2.0, 0.0), (0.0, 0.0)):
        out = time_integral(alpha, betas, t)
        assert out.dtype == complex and np.array_equal(out, np.zeros(5))
        assert time_integral(alpha, 1.0, t) == 0.0


def test_kernel_scalar_and_shape():
    val = time_integral(2.0, 0.5, 0.8)
    assert isinstance(val, complex)
    betas = np.array([[-3.0, 0.0, 2.0], [5.5, -2.0, 1e-3]])
    out = time_integral(2.0, betas, 0.8)
    assert out.shape == (2, 3)
    for b, v in zip(betas.ravel(), out.ravel()):
        assert v == pytest.approx(time_integral(2.0, float(b), 0.8),
                                  rel=1e-14)
    # more than KERNEL_BLOCK betas in one call, bit for bit against one
    # call per row
    betas = np.random.default_rng(2).uniform(-500.0, 500.0, (3, 5000))
    out = time_integral(2.0, betas, 0.8)
    assert out.shape == (3, 5000)
    assert _bits(out) == _bits([time_integral(2.0, row, 0.8)
                                for row in betas])


def test_kernel_exact_resonance_across_blocks():
    # |beta| = alpha exactly, where the half-angle Y and its divisor vanish,
    # at the first and last entries of one broadcast array and at two
    # interior ones, against one scalar call per spot
    alpha, t = dispersion(1.7), 0.9
    betas = np.random.default_rng(4).uniform(-40.0, 40.0, 3 * KERNEL_BLOCK)
    spots = (0, KERNEL_BLOCK - 1, KERNEL_BLOCK, betas.size - 1)
    for k, pos in enumerate(spots):
        betas[pos] = alpha if k % 2 == 0 else -alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = time_integral(alpha, betas, t)
        scalars = [time_integral(alpha, float(betas[pos]), t)
                   for pos in spots]
    assert np.isfinite(out).all()
    assert [out[pos] for pos in spots] == scalars


def _bits(a):
    return np.asarray(a, dtype=complex).tobytes()


def test_kernel_alpha_per_row_matches_scalar_rows():
    # one alpha per row against the reference kernel row by row, bit for
    # bit: rows of 64, 3000 and KERNEL_BLOCK + 1808 betas holding
    # beta = +-alpha, with a row at alpha = 0 and two rows sharing alpha
    rng = np.random.default_rng(5)
    for width in (64, 3000, KERNEL_BLOCK + 1808):
        alpha = dispersion(rng.uniform(0.1, 6.0, 7))
        alpha[2] = 0.0
        alpha[4] = alpha[3]
        beta = rng.uniform(-80.0, 80.0, (7, width))
        beta[:, 0], beta[:, -1] = alpha, -alpha
        for t in (0.0, 0.7, DEFAULT_HORIZON):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = time_integral(alpha[:, None], beta, t)
            rows = [_reference_kernel(a, row, t)
                    for a, row in zip(alpha.tolist(), beta)]
            assert out.shape == beta.shape
            assert _bits(out) == _bits(rows), (width, t)


def test_kernel_alpha_broadcasts_against_beta():
    # alpha per leading index of a 3-d beta, per column, and per entry,
    # bit for bit against the reference kernel
    rng = np.random.default_rng(6)
    beta = rng.uniform(-30.0, 30.0, (2, 3, 4))
    alpha = dispersion(rng.uniform(0.1, 6.0, (2, 3, 4)))
    ref = [_reference_kernel(a, b, 0.8)
           for a, b in zip(alpha.ravel().tolist(), beta.ravel().tolist())]
    ref = np.array(ref).reshape(beta.shape)
    assert _bits(time_integral(alpha, beta, 0.8)) == _bits(ref)
    col = alpha[0, 0]
    assert _bits(time_integral(col, beta, 0.8)) == _bits(
        [[[_reference_kernel(a, b, 0.8) for a, b in zip(col.tolist(), row)]
          for row in plane] for plane in beta])
    lead = alpha[:, :1, :1]
    assert _bits(time_integral(lead, beta, 0.8)) == _bits(
        [_reference_kernel(a, b, 0.8) for a, b in zip(lead.ravel(), beta)])


def test_kernel_scalar_alpha_kinds():
    # a 0-d or numpy scalar alpha with a scalar beta gives a Python
    # complex; a one-element alpha array gives an array
    for alpha in (2.0, np.float64(2.0), np.array(2.0)):
        val = time_integral(alpha, 0.5, 0.8)
        assert isinstance(val, complex) and val == time_integral(2.0, 0.5,
                                                                 0.8)
    out = time_integral(np.array([2.0]), 0.5, 0.8)
    assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert time_integral(np.zeros((0, 1)), np.ones(3), 0.8).shape == (0, 3)


def test_kernel_validation():
    with pytest.raises(ValueError):
        time_integral(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        time_integral(1.0, 0.0, -0.5)
    # one bad entry of an alpha array, per entry or per row
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        for alpha in (np.array([1.0, bad]), np.array([[bad], [2.0]])):
            with pytest.raises(ValueError, match=f"alpha={bad}"):
                time_integral(alpha, np.array([1.0, 2.0]), 1.0)
    for alpha, t, bad in ((math.nan, 1.0, "alpha=nan"),
                          (math.inf, 1.0, "alpha=inf"),
                          (1.0, math.nan, "t=nan"), (1.0, math.inf, "t=inf"),
                          (math.nan, 0.0, "alpha=nan"),
                          (0.0, -math.inf, "t=-inf")):
        with pytest.raises(ValueError, match=bad):
            time_integral(alpha, np.array([1.0, 2.0]), t)


def test_kernel_matches_libm_kernel():
    # sin Y and cos Y from tan(Y/2) against sin and cos from libm, on 10^5
    # betas: |beta| log-uniform up to 1e7, a band around alpha, and
    # |beta| = alpha exactly
    rng = np.random.default_rng(21)
    for _ in range(20):
        alpha = dispersion(rng.uniform(0.1, 6.0))
        t = rng.uniform(0.05, 2.0)
        betas = np.concatenate([
            rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3, 7, 4000),
            rng.uniform(-4.0 * alpha, 4.0 * alpha, 996),
            [alpha, -alpha, alpha, -alpha]])
        ref = _reference_kernel(alpha, betas, t, sin_cos=_libm_sin_cos)
        val = time_integral(alpha, betas, t)
        assert np.all(np.abs(val - ref)
                      <= 1e-15 * np.maximum(1.0, np.abs(ref))), (alpha, t)


def test_kernel_vs_mpmath_wide_beta():
    # |beta| log-uniform over [1e-3, 1e7], where the rounding of the
    # arguments limits both kernels: at most twice the libm kernel's error
    rng = np.random.default_rng(8)
    n = 2000
    alphas = dispersion(rng.uniform(0.1, 6.0, n))
    ts = rng.uniform(0.05, 2.0, n)
    betas = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 7, n)
    worst = worst_libm = 0.0
    for alpha, beta, t in zip(alphas.tolist(), betas.tolist(), ts.tolist()):
        ref = _mp_kernel(alpha, beta, t)
        libm = complex(_reference_kernel(alpha, beta, t,
                                         sin_cos=_libm_sin_cos))
        worst = max(worst, abs(time_integral(alpha, beta, t) - ref) / abs(ref))
        worst_libm = max(worst_libm, abs(libm - ref) / abs(ref))
    assert worst <= 2.0 * worst_libm, (worst, worst_libm)


def test_kernel_at_tangent_poles():
    # Y/2 at the doubles either side of pi/2 + k pi, where |tan(Y/2)| runs
    # from 1e16 down to 1e9. With alpha = 2^-10 and t = 2, Y/2 = (|beta| -
    # alpha)/2 is exact, and so is Y/2 = -c at alpha = 2c + 2^-10,
    # beta = 2^-10.
    import mpmath as mp
    t, eps = 2.0, 2.0 ** -10
    cases = []
    for k in (0, 1, 2, 7, 100, 10 ** 4, 10 ** 6):
        with mp.workdps(40):
            pole = mp.pi / 2 + k * mp.pi
            near = float(pole)
            other = math.nextafter(near, math.inf if near < pole
                                   else -math.inf)
        for c in (near, other):
            assert abs(math.tan(c)) > 1e9
            for alpha, beta in ((eps, 2.0 * c + eps), (eps, -2.0 * c - eps),
                                (2.0 * c + eps, eps)):
                assert abs((abs(beta) - alpha) * (0.5 * t) * 0.5) == c
                cases.append((alpha, beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in cases:
            val = time_integral(alpha, beta, t)
            ref = _mp_kernel(alpha, beta, t)
            assert abs(val - ref) <= 1e-15 * abs(ref), (alpha, beta)


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


@pytest.mark.parametrize("sign", [0, 3, -2])
def test_sign_outside_plus_minus_one_refused(sign):
    # a sign of 3 would scale the profile threefold, 0 would zero it
    torus = build_witness(WitnessConfig(Domain.TORUS, 2, 16, s=-1.0))
    line = build_witness(WitnessConfig(Domain.LINE, 2, 16, s=-1.0))
    message = f"sign must be -1 or \\+1, got {sign}"
    with pytest.raises(ValueError, match=message):
        flow_derivative_torus(torus, 2, 1.0, sign=sign)
    with pytest.raises(ValueError, match=message):
        flow_derivative_line(line, 2, 1.0, sign=sign)
    with pytest.raises(ValueError, match="sign must be"):
        growth_table(2, Domain.TORUS, -1.0, None, 1.0, [16, 32], sign=sign)


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


def test_line_doubling_check(monkeypatch):
    # doubling the default 64 nodes per dimension moves the profile by
    # less than 1e-5 relative
    pair = build_witness(WitnessConfig(Domain.LINE, 2, 32, s=-1.0))
    coarse = flow_derivative_line(pair, 2, 1.0)
    assert coarse.meta["nodes_per_dim"] == 64
    monkeypatch.setattr(flow_derivative, "LINE_NODES", {2: 128})
    fine = flow_derivative_line(pair, 2, 1.0)
    scale = np.abs(fine.values).max()
    assert np.abs(coarse.values - fine.values).max() < 1e-5 * scale
    assert coarse.meta["warnings"] == []


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


def test_line_lattice_agrees_with_tensor(monkeypatch):
    pair = build_witness(WitnessConfig(Domain.LINE, 4, 16, s=-1.0, sigma=0.0))
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", 9)
    monkeypatch.setattr(flow_derivative, "LINE_NODES", {4: 32})
    ref = flow_derivative_line(pair, 4, 1.0)
    monkeypatch.setattr(flow_derivative, "LINE_NODES", {})
    lat = flow_derivative_line(pair, 4, 1.0, seed=3)
    assert lat.meta["method"] == "lattice"
    assert lat.meta["mc_halfwidth_max"] > 0.0
    scale = np.abs(ref.values).max()
    worst = np.abs(lat.values - ref.values).max()
    assert worst < max(4.0 * lat.meta["mc_halfwidth_max"], 1e-3 * scale)


# p = 6, N = 16, t = 1 on 9 xi nodes: tensor Richardson over 16 and 32
# nodes, fine + (fine - coarse) / 3, stored because the full 32-node grid
# takes 17 s. Computed at commit ea6b1f7, whose tensor rule summed the same
# nodes and weights in another order; the full grid agrees to 6e-16 of
# the peak
_P6_REFERENCE = np.array([
    (11.635265422865695-54.33402037594749j),
    (12.952314401485074-65.16568740271838j),
    (9.172261278970405-74.5176452969748j),
    (3.256479002031228-78.88625209808916j),
    (-0.28454719567076386-78.43047905864715j),
    (1.054047397795344-76.84351359672377j),
    (5.893117022226351-78.19703809136826j),
    (10.196673168855071-83.88993279713013j),
    (10.504550523635224-91.55060417879066j),
])


@pytest.mark.parametrize("p,levels,bias", [
    (4, (32, 64), 4e-5),
    (5, (16, 32), 7e-5),
    (6, None, 1.5e-4),
], ids=["4", "5", "6"])
def test_line_lattice_accuracy_oracle(monkeypatch, p, levels, bias):
    # the default lattice at N = 16 against tensor Richardson over levels
    # nodes (the midpoint rule's error is O(h^2)). On these 9 xi nodes the
    # references agree with a 16381-point x 16-shift lattice (standard
    # error at most 1.7e-5 of the peak) to 1.5e-6 / 6.7e-6 / 1.3e-6 on the
    # window mass and 3.1e-5 / 6.3e-5 / 1.1e-4 of the peak pointwise for
    # p = 4 / 5 / 6; bias is that pointwise figure rounded up. Over seeds
    # 0..9 the lattice's mass error read at most 1.2e-5 / 1.2e-4 / 2.3e-4
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", 9)
    pair = build_witness(WitnessConfig(Domain.LINE, p, 16, s=-1.0))
    lat = flow_derivative_line(pair, p, 1.0, seed=7)
    assert lat.meta["method"] == "lattice"
    if levels is None:
        values = _P6_REFERENCE
    else:
        def tensor(nodes):
            monkeypatch.setattr(flow_derivative, "LINE_NODES", {p: nodes})
            return flow_derivative_line(pair, p, 1.0).values

        coarse, fine = map(tensor, levels)
        values = fine + (fine - coarse) / 3.0
    ref = DerivativeProfile(Domain.LINE, p, 1.0, lat.xi, values, lat.weights,
                            {})
    mass, ref_mass = (window_sobolev_mass(pr, -1.0) for pr in (lat, ref))
    assert abs(mass / ref_mass - 1.0) < 3e-4
    peak = np.abs(ref.values).max()
    assert (np.abs(lat.values - ref.values).max()
            <= lat.meta["mc_halfwidth_max"] + bias * peak)
    assert 0.0 < lat.meta["err_est"] < 1e-2


def _reference_prefactor(pair, p, xi, sign=1):
    cfg = pair.config
    return (sign * math.factorial(p) * np.asarray(xi) ** 2
            / (float(cfg.N) ** (p * cfg.sigma) * dispersion(xi)))


def _reference_phase(v):
    return -v * np.sqrt(1.0 + v * v)


def _reference_integrand(slots, xi, alpha, t, outer, offsets, weight):
    """The clipped-innermost integrand with a boolean row mask, the outer
    sums formed from scratch on every call."""
    det_lo, det_hi = slots[-1]
    in_lo, in_hi = slots[-2]
    S_out = np.zeros(len(offsets))
    P_out = np.zeros(len(offsets))
    for pts in outer:
        S_out = S_out + pts
        P_out = P_out + _reference_phase(pts)
    lo_f = np.maximum(in_lo, xi - S_out - det_hi)
    hi_f = np.minimum(in_hi, xi - S_out - det_lo)
    rows = hi_f > lo_f
    m = offsets.shape[1]
    h = (hi_f[rows] - lo_f[rows]) / m
    offsets = np.broadcast_to(offsets, (rows.size, m))[rows]
    y = lo_f[rows, None] + offsets * h[:, None]
    d = xi - (S_out[rows, None] + y)
    beta = P_out[rows, None] + _reference_phase(y) + _reference_phase(d)
    return rows, weight * h[:, None] * _reference_kernel(alpha, beta, t)


def _reference_line(pair, p, t, nodes, n_xi, sign=1):
    """flow_derivative_line's tensor rule as a direct loop: the full
    nodes^(p-1) grid rebuilt at every xi node, one kernel call per xi node
    and pattern. Also returns how many (xi node, pattern) clips were
    empty."""
    wlo, whi = pair.output_window
    patterns = enumerate_representations((wlo, whi), p,
                                         frequency_set(pair.config))
    h_xi = (whi - wlo) / n_xi
    xis = wlo + (np.arange(n_xi) + 0.5) * h_xi
    values = np.zeros(n_xi, dtype=complex)
    n_points = n_empty = 0
    for i, xi in enumerate(xis.tolist()):
        alpha = dispersion(xi)
        total = 0.0 + 0.0j
        for rep in patterns:
            slots = _representative_slots(rep)
            mids = [np.linspace(lo, hi, nodes, endpoint=False)
                    + (hi - lo) / (2 * nodes) for lo, hi in slots[:-2]]
            pts = [m.ravel() for m in np.meshgrid(*mids, indexing="ij")]
            offsets = (np.arange(nodes) + 0.5)[None, :]
            weight = math.prod((hi - lo) / nodes for lo, hi in slots[:-2])
            _, f = _reference_integrand(slots, xi, alpha, t, pts, offsets,
                                        weight)
            n_points += f.size
            n_empty += f.size == 0
            total += rep.multiplicity * complex(np.sum(f))
        values[i] = _reference_prefactor(pair, p, xi, sign) * total

    meta = {"method": "tensor", "n_patterns": len(patterns),
            "nodes_per_dim": nodes, "mc_samples": None,
            "n_points": n_points, "warnings": []}
    return xis, values, meta, n_empty


def _assert_line_bitwise(monkeypatch, p, N, t, sign=1, n_xi=9):
    # every float operation in the reference's order, on the full grid
    # (16 nodes/dim for the forced p = 4, 5 runs, 4 for p = 6..9)
    pair = build_witness(WitnessConfig(Domain.LINE, p, N, s=-1.0))
    nodes = 64 if p <= 3 else (16 if p <= 5 else 4)
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", n_xi)
    monkeypatch.setattr(flow_derivative, "LINE_NODES", {p: nodes})
    prof = flow_derivative_line(pair, p, t, sign=sign)
    xis, values, meta, n_empty = _reference_line(pair, p, t, nodes, n_xi,
                                                 sign)
    assert np.array_equal(prof.xi, xis)
    assert np.array_equal(prof.values, values)
    assert prof.meta == meta
    return n_empty


@pytest.mark.parametrize("p", range(2, 10))
@pytest.mark.parametrize("N", [16, 64])
def test_line_bitwise_against_reference(monkeypatch, p, N):
    _assert_line_bitwise(monkeypatch, p, N, 0.9)


_EDGE_ROWS = [
    (2, 1, 0.9, 1, 9),
    (4, 1, 0.9, 1, 9),
    (2, 16, 0.0, 1, 9),
    (3, 16, 0.0, -1, 9),
    (2, 16, DEFAULT_HORIZON, 1, 9),
    (3, 64, DEFAULT_HORIZON, 1, 9),
    (2, 64, 0.9, -1, 33),
    (3, 1, 0.9, -1, 9),            # empty clips, one node per call
]


# the ids end in -None, as when the rows had a sixth column, so that each
# row keeps its test name
@pytest.mark.parametrize("p,N,t,sign,n_xi", _EDGE_ROWS,
                         ids=["-".join(map(str, row)) + "-None"
                              for row in _EDGE_ROWS])
def test_line_bitwise_edges(monkeypatch, p, N, t, sign, n_xi):
    # N = 1, t = 0 and the horizon, sign -1, and xi nodes whose clip is
    # empty
    n_empty = _assert_line_bitwise(monkeypatch, p, N, t, sign, n_xi)
    assert (n_empty > 0) == (p == 3 and N == 1)


def test_line_n_points_counts_kernel_points(monkeypatch):
    # p = 2 has one row per pattern: every xi node and pattern passes its
    # 5 inner midpoints to the kernel
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", 3)
    monkeypatch.setattr(flow_derivative, "LINE_NODES", {2: 5, 3: 5})
    pair = build_witness(WitnessConfig(Domain.LINE, 2, 16, s=-1.0))
    prof = flow_derivative_line(pair, 2, 1.0)
    assert prof.meta["n_points"] == 3 * prof.meta["n_patterns"] * 5
    # the tensor rule at p = 3 and the lattice rule at p = 4 (a default
    # path) and p = 6: the count equals the betas the kernel is handed
    monkeypatch.setattr(flow_derivative, "LINE_LATTICE_POINTS", 61)
    kernel = flow_derivative.time_integral
    for p in (3, 4, 6):
        seen = []

        def counted(alpha, beta, t):
            seen.append(np.size(beta))
            return kernel(alpha, beta, t)

        monkeypatch.setattr(flow_derivative, "time_integral", counted)
        pair = build_witness(WitnessConfig(Domain.LINE, p, 16, s=-1.0))
        prof = flow_derivative_line(pair, p, 1.0)
        assert 0 < prof.meta["n_points"] == sum(seen), p


def test_kernel_calls_stay_within_kernel_block(monkeypatch):
    # time_integral evaluates a call in one pass, so its temporaries grow
    # with the call: at production resolutions no profile hands it more
    # than KERNEL_BLOCK betas (tensor p = 2, 3, lattice p = 4, torus p = 9),
    # and each p = 3 tensor call, one xi node, passes alpha as a scalar
    assert (flow_derivative.LINE_LATTICE_SHIFTS
            * flow_derivative.LINE_LATTICE_POINTS <= KERNEL_BLOCK)
    kernel = flow_derivative.time_integral
    calls = []

    def recorded(alpha, beta, t):
        calls.append((np.broadcast(np.asarray(alpha), np.asarray(beta)).size,
                      np.ndim(alpha)))
        return kernel(alpha, beta, t)

    monkeypatch.setattr(flow_derivative, "time_integral", recorded)
    alpha_dims = {}
    for p in (2, 3, 4):
        pair = build_witness(WitnessConfig(Domain.LINE, p, 16, s=-1.0))
        start = len(calls)
        flow_derivative_line(pair, p, 1.0)
        alpha_dims[p] = {ndim for _, ndim in calls[start:]}
    flow_derivative_torus(
        build_witness(WitnessConfig(Domain.TORUS, 9, 16, s=-1.0)), 9, 1.0)
    assert 0 < max(size for size, _ in calls) <= KERNEL_BLOCK
    assert alpha_dims[3] == {0}


def test_line_lattice_deterministic_per_seed(monkeypatch):
    pair = build_witness(WitnessConfig(Domain.LINE, 7, 12, s=-1.0))
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", 5)
    monkeypatch.setattr(flow_derivative, "LINE_LATTICE_POINTS", 251)
    a = flow_derivative_line(pair, 7, 0.8, seed=11)
    b = flow_derivative_line(pair, 7, 0.8, seed=11)
    c = flow_derivative_line(pair, 7, 0.8, seed=12)
    assert a.meta["method"] == "lattice"
    assert np.array_equal(a.values, b.values) and a.meta == b.meta
    assert (a.values != c.values).all()


@pytest.mark.parametrize("n_xi", [5, 9])
def test_line_lattice_shift_pool(monkeypatch, n_xi):
    # S = max(n_xi, q) pool shifts, drawn as rng.random((S, p - 1)); xi
    # node i takes shifts i, ..., i + q - 1 (mod S): q distinct ones even
    # when there are fewer xi nodes than q
    p, n, q, seed = 6, 31, flow_derivative.LINE_LATTICE_SHIFTS, 4
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", n_xi)
    monkeypatch.setattr(flow_derivative, "LINE_LATTICE_POINTS", n)
    pool = max(n_xi, q)
    z = flow_derivative._generating_vector(n, p - 1)
    shifts = np.random.default_rng(seed).random((pool, p - 1))
    inner = flow_derivative._lattice_column(n, z[-1], shifts[:, -1])
    integrand = flow_derivative._pattern_integrand
    used = []

    def spy(slots, xi, alpha, t, S_out, P_out, offsets, weight):
        used.append([next(k for k in range(pool)
                          if np.array_equal(row, inner[k]))
                     for row in offsets.reshape(q, n)])
        return integrand(slots, xi, alpha, t, S_out, P_out, offsets, weight)

    monkeypatch.setattr(flow_derivative, "_pattern_integrand", spy)
    pair = build_witness(WitnessConfig(Domain.LINE, p, 16, s=-1.0))
    prof = flow_derivative_line(pair, p, 1.0, seed=seed)
    assert len(used) == n_xi * prof.meta["n_patterns"]
    for k, rows in enumerate(used):
        i = k % n_xi
        assert rows == [(i + j) % pool for j in range(q)]
        assert len(set(rows)) == q
    assert prof.meta["mc_samples"] == n * q


def test_lattice_generating_vector():
    # deterministic (rebuilt past the cache), z_1 = 1, each z_j in 1..n-1,
    # and each z_j minimises the P_2 error given z_1..z_(j-1) among all
    # n - 1 candidates, scored here on the full n x n table
    n, d = 61, 6
    z = flow_derivative._generating_vector(n, d)
    assert z == flow_derivative._generating_vector.__wrapped__(n, d)
    assert len(z) == d and z[0] == 1
    assert all(1 <= zj <= n - 1 for zj in z)
    x = np.outer(np.arange(1, n), np.arange(n)) % n / n
    table = 1.0 + 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)
    prod = np.ones(n)
    for j, zj in enumerate(z, start=1):
        errs = ((1.0 + (table - 1.0) / j ** 2) * prod).mean(axis=1) - 1.0
        assert errs[zj - 1] <= errs.min() * (1.0 + 1e-12)
        prod *= 1.0 + (table[zj - 1] - 1.0) / j ** 2


def test_lattice_column_matches_mod_fold():
    # the floor fold x - floor(x) against x % 1.0 on [0, 2): shift 0, the
    # largest double below 1, and shifts 1 - {k z / n} that put k z / n +
    # shift on 1.0 exactly
    n, z = 61, 17
    frac = np.arange(n) * z % n / n
    onto_one = [1.0 - f for f in frac.tolist() if f >= 0.5][:4]
    shifts = np.array([0.0, 1.0 - 2.0 ** -53, *onto_one])
    x = np.add.outer(shifts, frac)
    assert (x == 1.0).sum() >= 4 and x.max() < 2.0
    ref = 1.0 - np.abs(2.0 * (x % 1.0) - 1.0)
    col = flow_derivative._lattice_column(n, z, shifts)
    assert col.tobytes() == ref.tobytes()


def test_lattice_integrates_smooth_product():
    # prod_j g(x_j) with g(x) = e^x / (e - 1) integrates to 1 over the
    # unit cube; it is not periodic, which the tent transform absorbs.
    # Plain Monte Carlo on the same n q points would have a standard
    # error of about 1e-2; the lattice must be 10x below it and within
    # Student's 95% half-width of the truth
    n, d, q = 1021, 8, 8
    z = flow_derivative._generating_vector(n, d)
    shifts = np.random.default_rng(2).random((q, d))
    est = np.ones((q, n))
    for j in range(d):
        est *= np.exp(flow_derivative._lattice_column(n, z[j], shifts[:, j]))
    est = est.mean(axis=1) / (math.e - 1.0) ** d
    se = est.std(ddof=1) / math.sqrt(q)
    assert 0.0 < se < 1e-3
    assert abs(est.mean() - 1.0) <= flow_derivative.LINE_T975 * se


def test_student_t975_matches_scipy():
    # the lattice rule's 95% half-width takes the quantile at q - 1 degrees
    # of freedom
    from scipy.stats import t as student
    assert flow_derivative.LINE_T975 == pytest.approx(
        student.ppf(0.975, flow_derivative.LINE_LATTICE_SHIFTS - 1),
        rel=1e-12)


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
    assert window_sobolev_mass(prof, 0.0) == pytest.approx(2.0)


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


def test_growth_table_rejects_vanishing_ratio(monkeypatch):
    # K vanishes at t = 0, and the profile underflows at t = 1e-200
    monkeypatch.setattr(flow_derivative, "LINE_XI_NODES", 3)
    for t in (0.0, 1e-200):
        with pytest.raises(ValueError, match=f"N=16, t={t} is not finite"):
            growth_table(2, Domain.TORUS, -1.0, None, t, [16, 32])
        with pytest.raises(ValueError, match=f"N=16, t={t} is not finite"):
            growth_table(2, Domain.LINE, -1.0, None, t, [16, 32])


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


def _evaluate(pair, t, sign, seed):
    p = pair.config.p
    if pair.config.domain == Domain.TORUS:
        return flow_derivative_torus(pair, p, t, sign=sign)
    return flow_derivative_line(pair, p, t, sign=sign, seed=seed)


@pytest.mark.parametrize("domain", [Domain.TORUS, Domain.LINE])
@pytest.mark.parametrize("p", range(2, 10))
def test_growth_tables_match_separate_tables(p, domain):
    # one representation sum per N shared by three s gives each s the bits
    # of its own growth_table; sigma explicit at even p, sign -1 at odd p,
    # and a lattice seed from p = 4 on
    sigma, sign, seed = (0.25 if p % 2 == 0 else None), (-1) ** p, 3 * p
    s_list = (-1.0, -0.75, -0.5)
    N_list = [16, 32]
    shared = growth_tables(p, domain, s_list, sigma, 0.8, N_list, sign=sign,
                           seed=seed)
    separate = [growth_table(p, domain, s, sigma, 0.8, N_list, sign=sign,
                             seed=seed) for s in s_list]
    # repr shows every bit of a float, a nan running slope included
    assert [repr(table) for table in shared] == list(map(repr, separate))


@pytest.mark.parametrize("domain", [Domain.TORUS, Domain.LINE])
@pytest.mark.parametrize("p", range(2, 10))
def test_rescaled_profile_matches_its_own_evaluation(p, domain):
    # another witness's values from shared sums, by _profile_values: values
    # and error estimates (the lattice rule's) as its own evaluation gives
    # them, from the same sums
    sign, seed = (-1) ** p, 3
    base = _evaluate(build_witness(WitnessConfig(domain, p, 16, -1.0)), 0.7,
                     sign, seed)
    pair = build_witness(WitnessConfig(domain, p, 16, -0.6, 0.1))
    own = _evaluate(pair, 0.7, sign, seed)
    prefs = flow_derivative._prefactors(pair, p, own.xi, sign)
    values, errors = flow_derivative._profile_values(prefs, base.sums, p, 16)
    assert _bits(values) == _bits(own.values)
    assert _bits(base.sums) == _bits(own.sums)
    assert errors == {key: own.meta[key] for key in
                      ("err_est", "mc_halfwidth_max") if key in own.meta}
    assert _bits(own.values) != _bits(base.values)


def test_growth_tables_refuse_first_as_one_s_would(monkeypatch):
    # at each N every s's witness, N^(p sigma) and prefactor checks run
    # before the sum is formed: the refusal names the s, N and message of
    # that s's own growth_table. At p = 4 on the torus, s = -66 (sigma
    # -65) leaves N^(p sigma) subnormal at N = 16 and the prefactor
    # overflows; s = -61 passes those checks but its profile's H^s mass
    # overflows; s = -26 is refused at N = 4096, where N^(p sigma)
    # underflows; and t = 1e-200 makes the ratio of s = -1 vanish
    sums = []
    evaluate = flow_derivative.flow_derivative_torus

    def counted(pair, p, t, *, sign=1):
        sums.append(pair.config.N)
        return evaluate(pair, p, t, sign=sign)

    monkeypatch.setattr(flow_derivative, "flow_derivative_torus", counted)

    def refusal(s_list, t, N_list):
        sums.clear()
        with pytest.raises(ValueError) as info:
            growth_tables(4, Domain.TORUS, s_list, None, t, N_list)
        return str(info.value), list(sums)

    prefactor = ("prefactor p! xi^2 / (N^(p sigma) lambda(xi)) at p=4, "
                 "N=16 is not finite")
    for s_list, t, N_list, message, formed in (
            ([-66.0], 1.0, [16, 32], prefactor, []),
            ([-1.0, -66.0], 1.0, [16, 32], prefactor, []),
            ([-61.0, -66.0], 1.0, [16, 32], prefactor, []),
            ([-1.0, -66.0], 1e-200, [16, 32], prefactor, []),
            ([-61.0], 1.0, [16, 32], "H^-61 window mass of the p=4 profile "
             "at t=1 is not finite", [16]),
            ([-1.0], 1e-200, [16, 32], "growth ratio 0.0 at N=16, t=1e-200 "
             "is not finite and positive", [16]),
            ([-1.0, -26.0], 1.0, [16, 4096], "N^(p sigma) factor 0.0 at "
             "N=4096 is not finite and positive", [16]),
            ([-26.0, -61.0], 1.0, [16, 4096], "H^-61 window mass of the "
             "p=4 profile at t=1 is not finite", [16])):
        assert refusal(s_list, t, N_list) == (message, formed), s_list
    # the one-s calls behind those refusals
    for s, t, N_list, message in (
            (-66.0, 1.0, [16, 32], prefactor),
            (-26.0, 1.0, [16, 4096], "N^(p sigma) factor 0.0 at N=4096 is "
             "not finite and positive")):
        assert refusal([s], t, N_list)[0] == message
    with pytest.raises(ValueError, match="need at least one s"):
        growth_tables(4, Domain.TORUS, [], None, 1.0, [16, 32])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Every bin of growth_tables' N worth a fork; the list of forks made,
    one pid each."""
    made, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            made.append(pid)
        return pid
    monkeypatch.setattr(flow_derivative, "FORK_MIN_POINTS", 0.0)
    monkeypatch.setattr(os, "fork", counting)
    return made


def _same_tables(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.p, x.domain, x.s, x.t) == (y.p, y.domain, y.s, y.t)
        # repr shows every bit of a float, the first N's nan slope included
        assert [repr(vars(r)) for r in x.records] == \
            [repr(vars(r)) for r in y.records]
        assert repr((x.slope, x.sigma)) == repr((y.slope, y.sigma))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("p, domain, s_list, sigma, sign, seed", [
    (4, Domain.LINE, (-1.0, -0.6), None, 1, 5),
    (7, Domain.LINE, (-1.0, -0.5), 0.25, -1, 11),
    (3, Domain.LINE, (-1.0, -0.75), None, -1, 0),
    (2, Domain.TORUS, (-1.0, -0.75), 0.5, 1, 0),
], ids=["line-4", "line-7", "line-3", "torus-2"])
def test_growth_tables_forked_match_in_process(forks, monkeypatch, cpus, p,
                                               domain, s_list, sigma, sign,
                                               seed):
    # the N split over cpus bins, all but one in a child: the tables keep
    # the bits of the sums formed in this process
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    N_list = [16, 32, 64]
    forked = growth_tables(p, domain, s_list, sigma, 0.9, N_list, sign=sign,
                           seed=seed)
    assert len(forks) == cpus - 1
    monkeypatch.setattr(flow_derivative, "FORK_MIN_POINTS", math.inf)
    here = growth_tables(p, domain, s_list, sigma, 0.9, N_list, sign=sign,
                         seed=seed)
    assert len(forks) == cpus - 1
    _same_tables(forked, here)
    _no_child_left()


def test_growth_fork_threshold_keeps_small_sweeps_in_process(monkeypatch):
    # the weights come from numbers alone; criteria 1-3's six N at p = 2
    # and 3 and every torus sweep stay in this process, the lattice's go
    # over two bins
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    for p, domain, n_bins in ((2, Domain.TORUS, 1), (9, Domain.TORUS, 1),
                              (2, Domain.LINE, 1), (3, Domain.LINE, 1),
                              (4, Domain.LINE, 2), (9, Domain.LINE, 2)):
        six = [flow_derivative._growth_points(p, domain)] * 6
        bins = workers.work_bins(six, flow_derivative.FORK_MIN_POINTS)
        assert len(bins) == n_bins, (p, domain)
    assert flow_derivative._growth_points(3, Domain.LINE) == 33 * 64 ** 2
    assert flow_derivative._growth_points(5, Domain.LINE) == 33 * 1021 * 8


def test_growth_tables_one_cpu_or_no_fork_runs_in_process(forks,
                                                          monkeypatch):
    # a one-CPU affinity mask, or a platform without os.fork, forks
    # nothing and gives the same bits
    args = (4, Domain.LINE, (-1.0,), None, 1.0, [16, 32])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forked = growth_tables(*args, seed=2)
    assert len(forks) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    _same_tables(growth_tables(*args, seed=2), forked)
    assert len(forks) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.delattr(os, "fork")
    _same_tables(growth_tables(*args, seed=2), forked)
    _no_child_left()


@pytest.mark.parametrize("bad, first", [((32, 64), "N=32"),
                                        ((16, 32), "N=16"),
                                        ((64, 128), "N=64")],
                         ids=["32-64", "16-32", "64-128"])
def test_growth_tables_raise_the_first_failing_n(forks, monkeypatch, bad,
                                                 first):
    # N = 16 and 64 sum in this process, 32 and 128 in a child: the error
    # is the first failing N's, as the N in order raise it, whichever bin
    # it fell in
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    evaluate = flow_derivative.flow_derivative_line

    def failing(pair, p, t, **kwargs):
        if pair.config.N in bad:
            raise ValueError(f"sum at N={pair.config.N}")
        return evaluate(pair, p, t, **kwargs)

    monkeypatch.setattr(flow_derivative, "flow_derivative_line", failing)
    with pytest.raises(ValueError, match=f"^sum at {first}$"):
        growth_tables(2, Domain.LINE, (-1.0,), None, 1.0, [16, 32, 64, 128])
    assert len(forks) == 1
    _no_child_left()


def test_growth_tables_witness_refusal_before_a_later_sum_error(forks,
                                                                monkeypatch):
    # N = 32's prefactor check refuses in the child before its sum is
    # formed, and N = 64's sum fails in this process: the error is N = 32's
    # refusal, not the error of the bin that ran first
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    prefactors = flow_derivative._prefactors
    evaluate = flow_derivative.flow_derivative_line

    def refusing(pair, p, xi, sign):
        if pair.config.N == 32:
            raise ValueError("prefactor refused at N=32")
        return prefactors(pair, p, xi, sign)

    def failing(pair, p, t, **kwargs):
        if pair.config.N == 64:
            raise ValueError("sum at N=64")
        return evaluate(pair, p, t, **kwargs)

    monkeypatch.setattr(flow_derivative, "_prefactors", refusing)
    monkeypatch.setattr(flow_derivative, "flow_derivative_line", failing)
    with pytest.raises(ValueError, match="^prefactor refused at N=32$"):
        growth_tables(2, Domain.LINE, (-1.0, -0.75), None, 1.0,
                      [16, 32, 64, 128])
    assert len(forks) == 1
    _no_child_left()
