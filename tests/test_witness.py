"""Witness construction: supports, windows, amplitudes, norm scaling."""
import math

import numpy as np
import pytest

from bqlab.flow_derivative import growth_table
from bqlab.simulator import inflation_experiment
from bqlab.spectral import Domain, dispersion, free_flow_rotation, write_json
from bqlab.witness import (WitnessConfig, WitnessPair, attainable_triplet_range,
                           build_witness, checked_n_list, data_norm,
                           frequency_set, output_window, triplet_count)


def _mode_map(data):
    return {int(f): v for f, v in zip(data.freqs, data.values)}


# -- configuration -------------------------------------------------------------

def test_config_sigma_default_and_validation():
    cfg = WitnessConfig(Domain.TORUS, 2, 16, s=-1.0)
    assert cfg.sigma == 0.0
    with pytest.raises(ValueError):
        WitnessConfig(Domain.TORUS, 2, 16, s=-1.0, sigma=-1.0)   # sigma <= s
    with pytest.raises(ValueError):
        WitnessConfig(Domain.TORUS, 1, 16, s=-1.0)               # p < 2
    with pytest.raises(ValueError):
        WitnessConfig(Domain.TORUS, 2, 0, s=-1.0)                # N < 1
    with pytest.raises(ValueError):
        WitnessConfig(Domain.TORUS, 2.5, 16, s=-1.0)             # fractional p
    for s, sigma in ((float("nan"), None), (-1.0, float("nan")),
                     (-1.0, float("inf")), (float("-inf"), 0.0)):
        with pytest.raises(ValueError, match="finite s and sigma"):
            WitnessConfig(Domain.TORUS, 2, 16, s=s, sigma=sigma)


def test_checked_n_list():
    assert checked_n_list([64, 16.0, 32]) == [16, 32, 64]
    assert checked_n_list((16, 32), 2) == [16, 32]
    for N_list, least, message in (
            ([], 1, "empty list"), ([16, 16.5], 1, "16.5 is not an integer"),
            ([0, 16], 1, r"N >= 1, got \[0\]"),
            ([32, 16, 32], 1, r"repeats \[32\]"),
            ([16], 2, r"at least 2 N values, got \[16\]")):
        with pytest.raises(ValueError, match=message):
            checked_n_list(N_list, least)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.5])
def test_non_integer_n_refused_with_value_error(bad):
    # an infinite or nan N is refused as a ValueError with the message of
    # any other non-integer N, at every entry point that takes N
    with pytest.raises(ValueError, match="^N must be an integer >= 1$"):
        WitnessConfig(Domain.TORUS, 2, bad, -1.0)
    message = f"^{bad!r} is not an integer$"
    with pytest.raises(ValueError, match=message):
        checked_n_list([16, bad])
    with pytest.raises(ValueError, match=message):
        growth_table(2, Domain.TORUS, -1.0, None, 1.0, [16, bad])
    with pytest.raises(ValueError, match=message):
        inflation_experiment([-0.6], [16, bad], p=2, delta=1e-2, t_end=1.0,
                             sign=1)


# -- frequency sets and windows --------------------------------------------------

def test_frequency_set_even_line():
    fs = frequency_set(WitnessConfig(Domain.LINE, 2, 7, s=0.0))
    assert fs.components == ((7.0, 8.0),)


def test_frequency_set_odd_line_frozen():
    # p = 3, N = 10: q = 1/18, near [10 + 1/3, 10 + 5/6], far [20, 20 + 1/3]
    fs = frequency_set(WitnessConfig(Domain.LINE, 3, 10, s=0.0))
    (lo1, hi1), (lo2, hi2) = fs.components
    assert lo1 == pytest.approx(10.0 + 1.0 / 3.0, abs=1e-12)
    assert hi1 == pytest.approx(10.0 + 5.0 / 6.0, abs=1e-12)
    assert lo2 == pytest.approx(20.0, abs=0)
    assert hi2 == pytest.approx(20.0 + 1.0 / 3.0, abs=1e-12)


def test_frequency_set_torus():
    assert frequency_set(WitnessConfig(Domain.TORUS, 5, 12, s=0.0)).components \
        == (12, 13, 24)
    assert frequency_set(WitnessConfig(Domain.TORUS, 4, 9, s=0.0)).components \
        == (9, 10)


def test_output_windows_frozen():
    assert output_window(WitnessConfig(Domain.TORUS, 2, 8, s=0.0)) == 1
    assert output_window(WitnessConfig(Domain.TORUS, 3, 8, s=0.0)) == 2
    assert output_window(WitnessConfig(Domain.TORUS, 5, 8, s=0.0)) == 3
    assert output_window(WitnessConfig(Domain.TORUS, 9, 8, s=0.0)) == 6
    assert output_window(WitnessConfig(Domain.LINE, 2, 8, s=0.0)) == (0.25, 0.5)
    lo, hi = output_window(WitnessConfig(Domain.LINE, 9, 8, s=0.0))
    assert lo == pytest.approx(1.0 - 2.0 / 9.0)
    assert hi == pytest.approx(1.0 + 2.0 / 9.0)


def test_line_window_inside_triplet_reach():
    # the window must be attainable by stacking the construction's triplets
    for p in (3, 5, 7, 9, 11, 13, 15, 25):
        m = triplet_count(p)
        lo, hi = output_window(WitnessConfig(Domain.LINE, p, 50, s=0.0))
        vlo, vhi = attainable_triplet_range(p, 50)
        assert m * vlo <= lo + 1e-12
        assert hi <= m * vhi + 1e-12


# -- the pair itself ---------------------------------------------------------------

def test_torus_witness_frozen_values():
    # p = 2, N = 10, sigma = 1: amplitude 0.1 on modes +-10, +-11 and the
    # matching one-sided velocity
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, 10, s=-0.5, sigma=1.0))
    u0, u1 = _mode_map(pair.u0), _mode_map(pair.u1)
    for k in (10, 11, -10, -11):
        assert u0[k] == pytest.approx(0.1, rel=1e-15)
    assert u1[10] == pytest.approx(-0.1j * dispersion(10), rel=1e-15)
    assert u1[-10] == pytest.approx(+0.1j * dispersion(10), rel=1e-15)
    assert u1[11] == pytest.approx(-0.1j * dispersion(11), rel=1e-15)
    assert pair.output_window == 1


def test_witness_hermitian():
    for domain in (Domain.TORUS, Domain.LINE):
        pair = build_witness(WitnessConfig(domain, 3, 12, s=-1.0))
        assert pair.u0.hermitian_defect() < 1e-15
        assert pair.u1.hermitian_defect() < 1e-15


def test_one_sided_wave_modulus():
    # with the matched velocity, |u_hat(t, xi)| stays N^-sigma pointwise
    pair = build_witness(WitnessConfig(Domain.TORUS, 3, 9, s=-1.0, sigma=0.5))
    amp = 9.0 ** -0.5
    xi = pair.u0.freqs
    for t in (0.4, 1.0, 1.9):
        c, s, _ = free_flow_rotation(dispersion(xi), t)
        pos = c * pair.u0.values + s * pair.u1.values
        assert np.allclose(np.abs(pos), amp, rtol=1e-12)
        # phase is exactly e^{-i t lambda sign(xi)}
        expect = amp * np.exp(-1j * t * dispersion(xi) * np.sign(xi))
        assert np.allclose(pos, expect, rtol=0, atol=1e-12)


def test_line_witness_amplitude():
    pair = build_witness(WitnessConfig(Domain.LINE, 2, 16, s=-1.0, sigma=0.25))
    assert np.allclose(np.abs(pair.u0.values), 16.0 ** -0.25, rtol=1e-15)
    assert np.allclose(pair.u1.values,
                       -1j * 16.0 ** -0.25 * dispersion(pair.u0.freqs)
                       * np.sign(pair.u0.freqs), rtol=1e-13)


# -- norms ----------------------------------------------------------------------

def test_data_norm_scaling_torus():
    # ||data||_{H^s} ~ N^{s - sigma}; the compensated ratio must stabilize
    s, sigma = -1.0, 0.0
    ratios = []
    for N in (16, 32, 64, 128, 256, 512, 1024):
        pair = build_witness(WitnessConfig(Domain.TORUS, 2, N, s, sigma))
        ratios.append(data_norm(pair, s) / N ** (s - sigma))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.5
    assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.02


def test_data_norm_decay_ratio_frozen():
    # s = -1, sigma = -0.5: doubling N multiplies the norm by 2^{s - sigma}
    s, sigma = -1.0, -0.5
    n512 = data_norm(build_witness(WitnessConfig(Domain.TORUS, 2, 512, s,
                                                 sigma)), s)
    n1024 = data_norm(build_witness(WitnessConfig(Domain.TORUS, 2, 1024, s,
                                                  sigma)), s)
    assert n1024 / n512 == pytest.approx(2.0 ** (s - sigma), rel=2e-2)


def test_data_norm_finite_past_the_square_range():
    # at s = -129.5 the amplitude 16^128.5 is about 5e154, so |u_hat|^2
    # overflows while the weights (1 + k^2)^s underflow: the norm read nan
    # and the witness was refused. The weights are subnormal here, so the
    # norm keeps only about seven digits
    mp = pytest.importorskip("mpmath")
    s, N = -129.5, 16
    amp2 = mp.mpf(N) ** (2 * 128.5)

    def norm(r, lam2):
        return mp.sqrt(sum(2 * (1 + k * k) ** mp.mpf(r) * amp2 * lam2(k)
                           for k in (N, N + 1)))
    exact = norm(s, lambda k: 1) + norm(s - 2.0, lambda k: k * k + k ** 4)
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, N, s))
    assert data_norm(pair, s) == pytest.approx(float(exact), rel=1e-6)


def test_data_norm_line_matches_torus_scale():
    s = -0.8
    ratios = []
    for N in (32, 64, 128, 256):
        pair = build_witness(WitnessConfig(Domain.LINE, 2, N, s))
        ratios.append(data_norm(pair, s) / N ** (s - (s + 1.0)))
    ratios = np.array(ratios)
    assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.02


# -- triplet bookkeeping -----------------------------------------------------------

def test_attainable_triplet_range_closed_form():
    # equals [3(p-2)/p^2, 3(p+2)/p^2] independently of N
    for p in (3, 5, 7, 9, 25):
        for N in (10, 1000):
            lo, hi = attainable_triplet_range(p, N)
            assert lo == pytest.approx(3.0 * (p - 2) / p ** 2, abs=1e-12)
            assert hi == pytest.approx(3.0 * (p + 2) / p ** 2, abs=1e-12)


def test_triplet_count():
    assert [triplet_count(p) for p in (3, 5, 7, 9, 15, 25)] == [1, 1, 1, 3, 5, 7]
    with pytest.raises(ValueError):
        triplet_count(4)


# -- serialization ------------------------------------------------------------------

@pytest.mark.parametrize("domain,p", [(Domain.TORUS, 2), (Domain.TORUS, 3),
                                      (Domain.LINE, 2), (Domain.LINE, 3)])
def test_witness_json_roundtrip(tmp_path, domain, p):
    pair = build_witness(WitnessConfig(domain, p, 14, s=-0.9, sigma=0.3))
    path = str(tmp_path / "w.json")
    write_json(path, pair.to_dict())
    back = WitnessPair.from_json(path)
    assert back.config == pair.config
    assert back.output_window == pair.output_window
    assert np.array_equal(back.u0.values, pair.u0.values)
    assert np.array_equal(back.u1.freqs, pair.u1.freqs)
    assert data_norm(back, -0.9) == pytest.approx(data_norm(pair, -0.9),
                                                  rel=1e-12)
