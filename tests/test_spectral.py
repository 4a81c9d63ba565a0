"""Dispersion relation, spectral containers, norms, and the free flow."""
import json
import math

import numpy as np
import pytest

from bqlab.spectral import (Domain, FrequencySet, SpectralData, dispersion,
                            free_flow_rotation, hs_norm, hs_norm_prescaled,
                            sin_over_lambda, sobolev_norm)


def _torus_data(modes, N=1, sigma=0.0, support=None):
    if support is None:
        support = FrequencySet(Domain.TORUS,
                               tuple(sorted({abs(k) for k in modes if k})) or (1,))
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
    fs = FrequencySet(Domain.TORUS, (4, 5))
    assert fs.signed_components() == [-5, -4, 4, 5]
    assert fs.contains(-5) and fs.contains(4) and not fs.contains(3)
    assert fs.max_frequency() == 5.0

    line = FrequencySet(Domain.LINE, ((1.0, 2.0), (4.0, 4.5)))
    assert line.signed_components() == [(-4.5, -4.0), (-2.0, -1.0),
                                        (1.0, 2.0), (4.0, 4.5)]
    assert line.contains(-4.2) and line.contains(1.5) and not line.contains(3.0)
    assert line.max_frequency() == 4.5


# -- containers ---------------------------------------------------------------

def test_sampled_line_grid_structure():
    fs = FrequencySet(Domain.LINE, ((3.0, 4.0),))
    data = SpectralData.sampled(fs, lambda x: np.ones_like(x, dtype=complex),
                                N=3, sigma=0.0)
    # 64 nodes per unit interval on each signed component
    assert data.freqs.size == 128
    assert data.weights.sum() == pytest.approx(2.0)
    for lo, hi in fs.signed_components():
        inside = (data.freqs > lo) & (data.freqs < hi)
        assert inside.sum() == 64


def test_sampled_short_component_floor():
    # components shorter than 8/64 still get 8 nodes per signed component
    fs = FrequencySet(Domain.LINE, ((5.0, 5.01),))
    data = SpectralData.sampled(fs, lambda x: np.ones_like(x, dtype=complex),
                                N=5, sigma=0.0)
    assert data.freqs.size == 16
    assert np.count_nonzero(data.freqs > 0) == 8
    assert data.weights.sum() == pytest.approx(0.02)


def test_sampled_torus_signed_modes():
    # every signed mode once, unit weights, and a lossless round trip of
    # the values of a real field, v(-k) = conj v(k)
    fs = FrequencySet(Domain.TORUS, (3, 4, 8))
    data = SpectralData.sampled(fs, lambda k: k * k + 1j * k, N=4, sigma=0.5)
    assert data.domain == Domain.TORUS
    assert data.freqs.tolist() == [-8.0, -4.0, -3.0, 3.0, 4.0, 8.0]
    assert data.weights.tolist() == [1.0] * 6
    assert np.array_equal(data.values, data.freqs ** 2 + 1j * data.freqs)
    back = SpectralData.from_dict(data.to_dict())
    for name in ("domain", "support", "N", "sigma"):
        assert getattr(back, name) == getattr(data, name)
    for name in ("freqs", "values", "weights"):
        assert np.array_equal(getattr(back, name), getattr(data, name))


def test_torus_rejects_fractional_modes():
    fs = FrequencySet(Domain.TORUS, (1,))
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


def test_sobolev_norm_huge_amplitudes():
    # |u_hat| = 1e200 on modes +-16, +-17: |u_hat|^2 alone overflows, but
    # the norm 2e200 does not
    data = _torus_data({k: 1e200 for k in (-17, -16, 16, 17)})
    assert sobolev_norm(data, 0.0) == pytest.approx(2e200, rel=1e-15)
    weights = sum(2.0 * (1.0 + k * k) ** -50.0 for k in (16, 17))
    assert sobolev_norm(data, -50.0) == pytest.approx(
        1e200 * math.sqrt(weights), rel=1e-14)


def test_sobolev_norm_line_window_mass():
    fs = FrequencySet(Domain.LINE, ((0.25, 0.5),))
    data = SpectralData.sampled(fs, lambda x: np.ones_like(x, dtype=complex),
                                N=1, sigma=0.0)
    # sqrt(integral of 1 over +-[1/4, 1/2]) = 1/sqrt(2)
    assert sobolev_norm(data, 0.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                    rel=1e-12)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 69, 1025])
def test_hs_norm_of_a_stack_matches_each_row_alone(width):
    # one call norms a stack of rows, each with the bits of its own call,
    # for a C-ordered stack, a column slice of a wider one and a 3-D stack;
    # the rows' scales run from 1e-200 to 1e200, so a prescale shared by
    # the stack would flush its small rows to 0; unscaled, the large row's
    # norm overflows to inf alike in both calls
    rng = np.random.default_rng(width)
    freqs = rng.uniform(-40.0, 40.0, size=width)
    weights = rng.uniform(0.1, 2.0, size=width)
    scales = 10.0 ** np.array([-200.0, -3.0, 0.0, 5.0, 200.0, 0.0])
    values = scales[:, None] * (rng.normal(size=(6, width))
                                + 1j * rng.normal(size=(6, width)))
    values[-1] = 0.0
    wide = np.zeros((6, width + 3), dtype=complex)
    wide[:, 3:] = values
    for form in (hs_norm, hs_norm_prescaled):
        for s in (-1.5, 0.0, 0.5, 2.0):
            with np.errstate(over="ignore"):
                solo = [form(freqs, row, weights, s) for row in values]
                stacks = [form(freqs, stack, weights, s) for stack in (
                    values, wide[:, 3:], values.reshape(2, 3, width))]
            assert all(type(n) is float for n in solo)
            assert all(_bits(norms) == _bits(solo) for norms in stacks)


@pytest.mark.parametrize("amp", [1e200, 1e-200])
def test_hs_norm_prescaled_far_from_one_matches_mpmath(amp):
    # |v|^2 overflows at 1e200 and underflows at 1e-200, so the unscaled
    # formula reads inf and 0; the prescaled one reads the norm
    mp = pytest.importorskip("mpmath")
    freqs = np.array([-17.0, -16.0, 0.0, 16.0, 17.0, 30.5])
    weights = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.25])
    values = amp * np.array([0.3 - 0.4j, 1.0, -2.5j, 1.0, 0.3 + 0.4j, 7.0])
    for s in (-50.0, -1.0, 0.0, 2.5):
        with mp.workdps(40):
            exact = mp.sqrt(sum(mp.mpf(w) * (1 + mp.mpf(x) ** 2) ** s
                                * abs(mp.mpc(v)) ** 2
                                for x, v, w in zip(freqs, values, weights)))
        got = hs_norm_prescaled(freqs, values, weights, s)
        assert abs(got - exact) <= 1e-15 * exact
        with np.errstate(over="ignore"):
            assert hs_norm(freqs, values, weights, s) == (
                math.inf if amp > 1 else 0.0)


# -- free flow ------------------------------------------------------------------

def _free_flow(u0, u1, t):
    """(position, velocity) values of the free flow from (u0, u1) at t."""
    c, s, ls = free_flow_rotation(dispersion(u0.freqs), t)
    return c * u0.values + s * u1.values, -ls * u0.values + c * u1.values


def test_propagate_zero_frequency_limit():
    # at xi = 0 position evolves as u0 + t u1 and the velocity stays u1
    fs = FrequencySet(Domain.TORUS, (1,))
    u0 = SpectralData(Domain.TORUS, np.array([0.0]), np.array([0.0 + 0j]),
                      np.array([1.0]), fs, 1, 0.0)
    u1 = SpectralData(Domain.TORUS, np.array([0.0]), np.array([0.7 + 0.1j]),
                      np.array([1.0]), fs, 1, 0.0)
    pos, vel = _free_flow(u0, u1, 1.3)
    assert pos[0] == pytest.approx(1.3 * (0.7 + 0.1j), rel=1e-15)
    assert vel[0] == 0.7 + 0.1j


def test_propagator_energy_conserved():
    rng = np.random.default_rng(3)
    modes = {}
    for k in (1, 2, 5, 9):
        modes[k] = complex(rng.normal(), rng.normal())
        modes[-k] = np.conj(modes[k])
    u0 = _torus_data(modes)
    u1 = _torus_data({k: 1j * v for k, v in modes.items()})
    lam2 = u0.freqs ** 2 + u0.freqs ** 4

    def energy(u, ut):   # lam^2 |u_hat|^2 + |ut_hat|^2 per node
        return lam2 * np.abs(u) ** 2 + np.abs(ut) ** 2

    e0 = energy(u0.values, u1.values)
    for t in (0.3, 1.1, 2.7):
        et = energy(*_free_flow(u0, u1, t))
        assert np.allclose(et, e0, rtol=1e-12, atol=1e-14)


# -- serialization ----------------------------------------------------------------

def _roundtrip(data):
    return SpectralData.from_dict(json.loads(json.dumps(data.to_dict())))


def test_roundtrip_torus():
    data = _torus_data({-5: 1 - 2j, -4: 0.5j, 4: -0.5j, 5: 1 + 2j},
                       N=4, sigma=1.0,
                       support=FrequencySet(Domain.TORUS, (4, 5)))
    back = _roundtrip(data)
    assert back.domain == Domain.TORUS
    assert np.array_equal(back.freqs, data.freqs)
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.weights, data.weights)
    assert back.support == data.support
    assert back.N == 4 and back.sigma == 1.0


def test_roundtrip_line():
    fs = FrequencySet(Domain.LINE, ((2.0, 3.0), (5.0, 5.25)))
    data = SpectralData.sampled(fs, lambda x: np.exp(1j * x), N=2, sigma=0.5)
    back = _roundtrip(data)
    assert back.support == fs
    assert np.array_equal(back.freqs, data.freqs)
    assert np.allclose(back.values, data.values, rtol=0, atol=1e-15)
    assert np.allclose(back.weights, data.weights, rtol=1e-15)
    assert sobolev_norm(back, -1.0) == pytest.approx(sobolev_norm(data, -1.0),
                                                     rel=1e-12)


@pytest.mark.parametrize("supports", [
    [{"modes": [4, 5]}],                        # A alone
    [{"modes": [-5, -4]}],                      # its mirror alone
    [{"modes": [-5, -4, 4]}],                   # lopsided
], ids=["plus", "minus", "lopsided"])
def test_from_dict_refuses_torus_support_without_mirror(supports):
    d = _torus_data({4: 1.0}, support=FrequencySet(Domain.TORUS, (4, 5)))
    d = dict(d.to_dict(), supports=supports)
    with pytest.raises(ValueError, match="supports: .*not mirror-symmetric"):
        SpectralData.from_dict(d)


@pytest.mark.parametrize("keep", [lambda lo: lo > 0, lambda lo: lo < 0],
                         ids=["plus", "minus"])
def test_from_dict_refuses_one_sided_line_support(keep):
    fs = FrequencySet(Domain.LINE, ((2.0, 3.0),))
    d = SpectralData.sampled(fs, np.ones_like, N=2, sigma=0.0).to_dict()
    d["supports"] = [s for s in d["supports"] if keep(s["lo"])]
    d["values"] = [row for row in d["values"] if keep(row[0])]
    with pytest.raises(ValueError, match="supports: .*not mirror-symmetric"):
        SpectralData.from_dict(d)


def test_from_dict_refuses_torus_sample_off_support():
    # an extra mode 50 beyond the support {+-8, +-9} of an N = 8 witness
    d = _torus_data({k: 1.0 for k in (-9, -8, 8, 9, 50)},
                    support=FrequencySet(Domain.TORUS, (8, 9))).to_dict()
    with pytest.raises(ValueError, match="values: frequency 50 lies on no"):
        SpectralData.from_dict(d)


@pytest.mark.parametrize("domain", [Domain.TORUS, Domain.LINE])
def test_from_dict_refuses_repeated_frequency(domain):
    # a repeated row used to load silently; on the line it would also have
    # shrunk every midpoint weight of its component
    if domain == Domain.TORUS:
        data = _torus_data({k: 1.0 for k in (-9, -8, 8, 9)})
    else:
        data = SpectralData.sampled(FrequencySet(Domain.LINE, ((2.0, 3.0),)),
                                    np.ones_like, N=2, sigma=0.0)
    d = data.to_dict()
    d["values"].append(d["values"][-1])
    freq = f"{d['values'][-1][0]:g}"
    with pytest.raises(ValueError, match=f"values: frequency {freq} is "
                                         "listed more than once"):
        SpectralData.from_dict(d)


def test_from_dict_refuses_line_sample_off_support():
    # a node between the components would get no midpoint weight
    fs = FrequencySet(Domain.LINE, ((2.0, 3.0), (5.0, 5.25)))
    d = SpectralData.sampled(fs, np.ones_like, N=2, sigma=0.0).to_dict()
    d["values"].append([4.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="values: frequency 4 lies on no"):
        SpectralData.from_dict(d)
