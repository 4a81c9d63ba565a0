"""Dispersion relation, spectral containers, norms, and the free propagator."""
import math

import numpy as np
import pytest

from bqlab.spectral import (Domain, FrequencySet, SetSign, SpectralData,
                            dispersion, propagate_linear_pair,
                            sin_over_lambda, sobolev_norm)


def _torus_data(modes, N=1, sigma=0.0, support=None):
    if support is None:
        support = FrequencySet(Domain.TORUS,
                               tuple(sorted({abs(k) for k in modes if k})) or (1,),
                               SetSign.BOTH)
    ks = np.array(sorted(modes), dtype=float)
    vals = np.array([modes[k] for k in sorted(modes)], dtype=complex)
    return SpectralData(Domain.TORUS, ks, vals, np.ones_like(ks),
                        support, N, sigma)


# -- dispersion --------------------------------------------------------------

def test_dispersion_frozen_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(1.4142135623730951, abs=1e-15)
    assert dispersion(10.0) == pytest.approx(100.49875621120891, rel=1e-15)
    assert dispersion(-3.0) == dispersion(3.0)


def test_dispersion_vectorized_and_scalar():
    xs = np.array([0.0, 1.0, 2.0])
    out = dispersion(xs)
    assert out.shape == xs.shape
    assert isinstance(dispersion(1.5), float)


def test_dispersion_sandwich():
    # xi^2 <= lambda(xi) <= xi^2 + 1/2, everywhere
    rng = np.random.default_rng(7)
    x = rng.uniform(-50.0, 50.0, size=500)
    lam = dispersion(x)
    assert np.all(lam >= x * x - 1e-12)
    assert np.all(lam <= x * x + 0.5 + 1e-12)


def test_dispersion_convex_on_positive_axis():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.01, 40.0, size=300)
    b = rng.uniform(0.01, 40.0, size=300)
    mid = dispersion((a + b) / 2.0)
    assert np.all(mid <= (dispersion(a) + dispersion(b)) / 2.0 + 1e-12)


def test_sin_over_lambda_zero_limit():
    assert sin_over_lambda(0.0, 0.37) == 0.37
    assert sin_over_lambda(2.0, 0.5) == pytest.approx(math.sin(1.0) / 2.0)


# -- frequency sets -----------------------------------------------------------

def test_frequency_set_validation():
    with pytest.raises(ValueError):
        FrequencySet(Domain.TORUS, ())
    with pytest.raises(ValueError):
        FrequencySet(Domain.TORUS, (3, 2))          # unsorted
    with pytest.raises(ValueError):
        FrequencySet(Domain.TORUS, (0, 2))          # nonpositive
    with pytest.raises(ValueError):
        FrequencySet(Domain.LINE, ((1.0, 2.0), (1.5, 3.0)))  # overlap
    with pytest.raises(ValueError):
        FrequencySet(Domain.LINE, ((2.0, 1.0),))    # reversed interval


def test_signed_components_order_and_contains():
    fs = FrequencySet(Domain.TORUS, (4, 5), SetSign.BOTH)
    assert fs.signed_components() == [-5, -4, 4, 5]
    assert fs.contains(-5) and fs.contains(4) and not fs.contains(3)
    assert fs.max_frequency() == 5.0

    line = FrequencySet(Domain.LINE, ((1.0, 2.0), (4.0, 4.5)), SetSign.BOTH)
    assert line.signed_components() == [(-4.5, -4.0), (-2.0, -1.0),
                                        (1.0, 2.0), (4.0, 4.5)]
    assert line.contains(-4.2) and line.contains(1.5) and not line.contains(3.0)
    assert line.max_frequency() == 4.5


def test_with_sign_minus_only():
    fs = FrequencySet(Domain.TORUS, (2,), SetSign.PLUS).with_sign(SetSign.MINUS)
    assert fs.signed_components() == [-2]
    assert not fs.contains(2)


# -- containers ---------------------------------------------------------------

def test_sampled_line_grid_structure():
    fs = FrequencySet(Domain.LINE, ((3.0, 4.0),), SetSign.BOTH)
    data = SpectralData.sampled(fs, lambda x: np.ones_like(x, dtype=complex),
                                N=3, sigma=0.0, nodes_per_unit=64)
    # 64 nodes per unit interval on each signed component
    assert data.freqs.size == 128
    assert data.weights.sum() == pytest.approx(2.0)
    for lo, hi in fs.signed_components():
        inside = (data.freqs > lo) & (data.freqs < hi)
        assert inside.sum() == 64


def test_sampled_short_component_floor():
    # components shorter than 8/64 still get 8 nodes
    fs = FrequencySet(Domain.LINE, ((5.0, 5.01),), SetSign.PLUS)
    data = SpectralData.sampled(fs, lambda x: np.ones_like(x, dtype=complex),
                                N=5, sigma=0.0)
    assert data.freqs.size == 8
    assert data.weights.sum() == pytest.approx(0.01)


def test_torus_rejects_fractional_modes():
    fs = FrequencySet(Domain.TORUS, (1,), SetSign.PLUS)
    with pytest.raises(ValueError):
        SpectralData(Domain.TORUS, np.array([1.5]), np.array([1.0 + 0j]),
                     np.array([1.0]), fs, 1, 0.0)


def test_hermitian_defect():
    good = _torus_data({-2: 1 - 1j, 2: 1 + 1j})
    assert good.hermitian_defect() == 0.0
    bad = _torus_data({-2: 1 + 1j, 2: 1 + 1j})
    assert bad.hermitian_defect() == pytest.approx(2.0)


# -- norms ---------------------------------------------------------------------

def test_sobolev_norm_frozen_two_pairs():
    # |u_hat| = 1/16 on modes +-16, +-17 at s = 0: norm = sqrt(4/256) = 1/8
    data = _torus_data({k: 1.0 / 16.0 for k in (-17, -16, 16, 17)})
    assert sobolev_norm(data, 0.0) == pytest.approx(0.125, rel=1e-12)


def test_sobolev_norm_zero_mode():
    # a unit mode at k = 0 has (1 + 0)^s = 1 for every s
    data = _torus_data({0: 1.0})
    assert sobolev_norm(data, 2.0) == pytest.approx(1.0, rel=1e-15)


def test_sobolev_norm_rejects_nonfinite():
    data = _torus_data({1: 1.0, -1: 1.0})
    data.values[0] = np.nan
    with pytest.raises(ValueError):
        sobolev_norm(data, 0.0)


def test_sobolev_norm_line_window_mass():
    fs = FrequencySet(Domain.LINE, ((0.25, 0.5),), SetSign.PLUS)
    data = SpectralData.sampled(fs, lambda x: np.ones_like(x, dtype=complex),
                                N=1, sigma=0.0)
    # sqrt(integral of 1 over [1/4, 1/2]) = 1/2
    assert sobolev_norm(data, 0.0) == pytest.approx(0.5, rel=1e-12)


# -- propagator -----------------------------------------------------------------

def test_propagate_zero_frequency_limit():
    # at xi = 0 position evolves as u0 + t u1 and the velocity stays u1
    fs = FrequencySet(Domain.TORUS, (1,), SetSign.PLUS)
    u0 = SpectralData(Domain.TORUS, np.array([0.0]), np.array([0.0 + 0j]),
                      np.array([1.0]), fs, 1, 0.0)
    u1 = SpectralData(Domain.TORUS, np.array([0.0]), np.array([0.7 + 0.1j]),
                      np.array([1.0]), fs, 1, 0.0)
    pos, vel = propagate_linear_pair(u0, u1, 1.3)
    assert pos.values[0] == pytest.approx(1.3 * (0.7 + 0.1j), rel=1e-15)
    assert vel.values[0] == 0.7 + 0.1j


def test_propagator_energy_conserved():
    rng = np.random.default_rng(3)
    modes = {}
    for k in (1, 2, 5, 9):
        modes[k] = complex(rng.normal(), rng.normal())
        modes[-k] = np.conj(modes[k])
    u0 = _torus_data(modes)
    u1 = _torus_data({k: 1j * v for k, v in modes.items()})

    def energy(u, ut):   # lam^2 |u_hat|^2 + |ut_hat|^2 per node
        return (u.freqs ** 2 + u.freqs ** 4) * np.abs(u.values) ** 2 \
            + np.abs(ut.values) ** 2

    e0 = energy(u0, u1)
    for t in (0.3, 1.1, 2.7):
        pos, vel = propagate_linear_pair(u0, u1, t)
        et = energy(pos, vel)
        assert np.allclose(et, e0, rtol=1e-12, atol=1e-14)


def test_propagator_grid_mismatch():
    a = _torus_data({1: 1.0, -1: 1.0})
    b = _torus_data({2: 1.0, -2: 1.0})
    with pytest.raises(ValueError):
        propagate_linear_pair(a, b, 1.0)


# -- serialization ----------------------------------------------------------------

def test_roundtrip_torus(tmp_path):
    data = _torus_data({-5: 1 - 2j, -4: 0.5j, 4: -0.5j, 5: 1 + 2j},
                       N=4, sigma=1.0,
                       support=FrequencySet(Domain.TORUS, (4, 5), SetSign.BOTH))
    path = str(tmp_path / "t.json")
    data.to_json(path)
    back = SpectralData.from_json(path)
    assert back.domain == Domain.TORUS
    assert np.array_equal(back.freqs, data.freqs)
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.weights, data.weights)
    assert back.support.signed_components() == data.support.signed_components()
    assert back.N == 4 and back.sigma == 1.0


def test_roundtrip_line(tmp_path):
    fs = FrequencySet(Domain.LINE, ((2.0, 3.0), (5.0, 5.25)), SetSign.BOTH)
    data = SpectralData.sampled(fs, lambda x: np.exp(1j * x), N=2, sigma=0.5)
    path = str(tmp_path / "l.json")
    data.to_json(path)
    back = SpectralData.from_json(path)
    assert np.array_equal(back.freqs, data.freqs)
    assert np.allclose(back.values, data.values, rtol=0, atol=1e-15)
    assert np.allclose(back.weights, data.weights, rtol=1e-15)
    assert sobolev_norm(back, -1.0) == pytest.approx(sobolev_norm(data, -1.0),
                                                     rel=1e-12)


def test_scaled_preserves_grid():
    data = _torus_data({1: 2.0, -1: 2.0})
    out = data.scaled(0.5j)
    assert np.array_equal(out.freqs, data.freqs)
    assert np.allclose(out.values, 0.5j * data.values)
