"""Integrating-factor stepper, derivative probe, and norm inflation."""
import math
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from bqlab import simulator, workers
from bqlab.errors import ResourceBudgetError, SimulationBlowup
from bqlab.flow_derivative import flow_derivative_torus
from bqlab.simulator import (SimConfig, SimState, Stepper, _fft_good_size,
                             _integrate_lockstep, _stencil_weights,
                             check_simulation_budget, fd_derivative_probe,
                             full_norm, has_shadow,
                             inflation_experiment, linear_energy,
                             windowed_norm, witness_state)
from bqlab.spectral import Domain, dispersion, free_flow_rotation
from bqlab.witness import WitnessConfig, build_witness


def _witness(p=2, N=8, s=-1.0, sigma=0.0):
    return build_witness(WitnessConfig(Domain.TORUS, p, N, s=s, sigma=sigma))


# -- grid sizing and config -----------------------------------------------------

def _fft_good_size_walk(n):
    """The first even 5-smooth number >= n, found by walking n, n + 1, ...:
    the reference for the enumeration."""
    m = max(2, int(n))
    while True:
        r = m
        for f in (2, 3, 5):
            while r % f == 0:
                r //= f
        if r == 1 and m % 2 == 0:
            return m
        m += 1


def _default_grids():
    """(p, K) of every run that a criterion or a CLI default makes:
    criterion 6's probes, criterion 7 and simulate, criterion 8 and
    inflate."""
    grids = [(2, 68), (2, 12)] + [(2, simulator._inflation_cutoff(2, N))
                                  for N in (16, 32, 64, 128)]
    for p in (2, 3):
        for N in (16, 32, 64):
            pair = _witness(p=p, N=N)
            grids.append((p, max(int(round(pair.u0.support.max_frequency())),
                                 pair.output_window)))
    return grids


def test_fft_good_size():
    # the enumeration of 2^a 3^b 5^c finds what the walk finds, at every
    # n up to 20,000; the walk's answer at n - 1 stands while it is >= n
    walk = None
    for n in range(-2, 20001):
        if walk is None or walk < n:
            walk = _fft_good_size_walk(n)
        assert _fft_good_size(n) == walk, n
    # and at the grid of every run that a criterion or a CLI default makes
    for p, K in _default_grids():
        n = (p + 1) * K + 1
        assert _fft_good_size(n) == _fft_good_size_walk(n), (p, K)
        # Stepper.nonlinear's forward transform is the even-length gufunc
        assert _fft_good_size(n) % 2 == 0, (p, K)
    assert _fft_good_size(33) == 36
    assert _fft_good_size(97) == 100
    # the walk's answers at K = 1e8 and 1e9, p = 2, which took it seconds
    assert _fft_good_size(3 * 10 ** 8 + 1) == 301989888
    assert _fft_good_size(3 * 10 ** 9 + 1) == 3019898880


@pytest.mark.parametrize("layout", ["1-D", "stack", "strided"])
def test_transforms_match_np_fft(layout):
    # Stepper.nonlinear calls numpy's pocketfft gufuncs directly, a private
    # module (checked on numpy 2.4 only): they must give np.fft's bits, so
    # that a numpy whose private layout moved fails here, not in the output
    rng = np.random.default_rng(7)
    for p, K in _default_grids():
        M = simulator._grid_size(p, K)
        shape = {"1-D": (K + 1,), "stack": (2, 3, K + 1),
                 "strided": (2, 3, 2 * K + 2)}[layout]
        u_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "strided":
            u_hat = u_hat[..., ::2]
        phys = np.empty(u_hat.shape[:-1] + (M,))
        simulator._irfft(u_hat, 1.0, out=phys)
        assert np.array_equal(
            phys, np.fft.irfft(u_hat, n=M, norm="forward")), (p, K, layout)
        spec = np.empty(u_hat.shape[:-1] + (M // 2 + 1,), dtype=complex)
        simulator._rfft(phys, 1.0, out=spec)
        assert np.array_equal(spec, np.fft.rfft(phys)), (p, K, layout)


def test_default_dt_resolves_in_config():
    # the default step 1 / lambda(K) is known before a stepper is built
    for K in (8, 20, 68):
        assert SimConfig(p=2, K=K).dt == 1.0 / dispersion(float(K))
        assert Stepper(SimConfig(p=2, K=K)).dt == SimConfig(p=2, K=K).dt
    assert SimConfig(p=2, K=8, dt=0.1).dt == 0.1
    # a default step that underflows to 0 is refused, not divided by, and
    # without an overflow warning, also for a K beyond the float range
    for huge in (10 ** 160, 10 ** 400):
        with pytest.raises(ValueError, match="finite dt > 0"):
            SimConfig(p=2, K=huge)


def test_run_is_sized_before_it_is_built(monkeypatch):
    # a step count that is not finite is over budget, where it ended in an
    # OverflowError; rows x M has a bound of its own
    state = SimState(0.0, np.zeros(9, dtype=complex),
                     np.zeros(9, dtype=complex))
    with pytest.raises(ResourceBudgetError, match="simulation budget"):
        Stepper(SimConfig(p=2, K=8, dt=1e-320)).integrate(state, 1.0)
    with pytest.raises(ResourceBudgetError, match="memory bound"):
        check_simulation_budget(2, 10 ** 8, 1.0, [(0.0, 1.0, 1)])
    with pytest.raises(ResourceBudgetError, match="memory bound"):
        check_simulation_budget(2, 10, 1.0, [(0.0, 0.1, 10 ** 5)] * 2)
    # criterion 6's largest rows x M, p = 3 and N = 64: 6 rows at M = 540
    pair = _witness(p=3, N=64)
    K = max(int(round(pair.u0.support.max_frequency())), pair.output_window)
    assert 6 * _fft_good_size(4 * K + 1) == 3240
    check_simulation_budget(3, K, 0.7, [(0.0, 0.7, 3)] * 2)

    # the probe and inflation refuse before a witness state or a stepper
    def unbuilt(*args, **kwargs):
        raise AssertionError("built before it was sized")
    for name in ("Stepper", "witness_state", "build_witness"):
        monkeypatch.setattr(simulator, name, unbuilt)
    with pytest.raises(ResourceBudgetError):
        fd_derivative_probe(_witness(p=2, N=8), 2, 1e9)
    with pytest.raises(ResourceBudgetError):
        _inflate([16, 10 ** 8])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(p=1, K=8)
    with pytest.raises(ValueError):
        SimConfig(p=2, K=0)
    with pytest.raises(ValueError):
        SimConfig(p=2, K=8, sign=2)
    with pytest.raises(ValueError):
        SimConfig(p=2, K=8, dt=-0.1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_times_refused(bad):
    with pytest.raises(ValueError, match="finite dt"):
        SimConfig(p=2, K=8, dt=bad)
    stepper = Stepper(SimConfig(p=2, K=8))
    state = SimState(0.0, np.zeros(9, dtype=complex),
                     np.zeros(9, dtype=complex))
    with pytest.raises(ValueError, match="finite t_end"):
        stepper.integrate(state, bad)
    with pytest.raises(ValueError, match="finite t_end"):
        _inflate([8], t_end=bad)


def test_default_dt_resolves_top_mode():
    stepper = Stepper(SimConfig(p=2, K=20))
    assert stepper.dt == pytest.approx(1.0 / dispersion(20))


# -- state helpers -----------------------------------------------------------------

def test_witness_state_layout():
    pair = _witness(p=2, N=8)
    st = witness_state(pair, 20)
    assert st.u.shape == (21,)
    assert st.u[8] == pytest.approx(1.0)     # sigma = 0 amplitude
    assert st.u[9] == pytest.approx(1.0)
    assert st.v[8] == pytest.approx(-1j * dispersion(8))
    assert abs(st.u[3]) == 0.0


def test_witness_state_validation():
    pair = _witness(p=2, N=8)
    with pytest.raises(ValueError):
        witness_state(pair, 5)              # below the support
    line = build_witness(WitnessConfig(Domain.LINE, 2, 8, s=-1.0))
    with pytest.raises(ValueError):
        witness_state(line, 40)


def test_norm_helpers():
    st = SimState(0.0, np.zeros(5, dtype=complex), np.zeros(5, dtype=complex))
    st.u[1] = 3.0
    st.u[2] = 4.0
    assert windowed_norm(st, (1, 2), 0.0) == pytest.approx(math.sqrt(50.0))
    assert full_norm(st, 0.0) == pytest.approx(math.sqrt(50.0))
    st.u[0] = 2.0   # mode zero counts once
    assert full_norm(st, 0.0) == pytest.approx(math.sqrt(54.0))
    assert windowed_norm(st, (1,), -1.0) == pytest.approx(
        math.sqrt(2.0 * 9.0 / 2.0))


def test_window_and_full_norms_round_alike():
    # both columns square |u| as x * x; squared by libm pow(x, 2), which
    # rounds otherwise for about 1 in 1,100 doubles, the window column
    # would read 1.3634008799488664 here
    st = SimState(0.0, np.zeros(5, dtype=complex), np.zeros(5, dtype=complex))
    st.u[1] = 0.9640700076875495
    assert windowed_norm(st, (1,), 0.0) == full_norm(st, 0.0)
    assert full_norm(st, 0.0) == 1.3634008799488666


def test_norms_of_a_stacked_state_match_its_rows():
    # a (2, 3, K+1) state is normed row by row in one call, each norm with
    # the bits of its row's one-row state
    rng = np.random.default_rng(7)
    u = rng.normal(size=(2, 3, 69)) + 1j * rng.normal(size=(2, 3, 69))
    u *= 10.0 ** rng.uniform(-200.0, 0.0, size=(2, 3, 1))
    stack = SimState(0.0, u, np.zeros_like(u))
    for s in (-1.0, 0.0, 2.0):
        for norm in (lambda st: windowed_norm(st, (1, 2, 30), s),
                     lambda st: full_norm(st, s)):
            rows = [norm(SimState(0.0, row, row)) for row in u.reshape(6, 69)]
            assert np.asarray(norm(stack)).shape == (2, 3)
            assert norm(stack).tobytes() == np.array(rows).tobytes()


# -- stepping ------------------------------------------------------------------------

def test_linear_step_matches_propagator():
    # nonlinearity off: the scheme is the exact mode rotation
    pair = _witness(p=2, N=8, sigma=1.0)
    K = 20
    st = witness_state(pair, K)
    t_end = 1.0
    final = Stepper(SimConfig(p=2, K=K, dt=0.017, sign=0)).integrate(st, t_end)
    lam = dispersion(np.arange(K + 1, dtype=float))
    expect_u = np.cos(lam * t_end) * st.u \
        + np.where(lam > 0, np.sin(lam * t_end) / np.where(lam > 0, lam, 1.0),
                   t_end) * st.v
    expect_v = -lam * np.sin(lam * t_end) * st.u + np.cos(lam * t_end) * st.v
    assert np.abs(final.u - expect_u).max() < 1e-12
    assert np.abs(final.v - expect_v).max() < 1e-12


def test_zero_data_stays_zero():
    stepper = Stepper(SimConfig(p=2, K=16, dt=0.01, sign=1))
    st = SimState(0.0, np.zeros(17, dtype=complex), np.zeros(17, dtype=complex))
    final = stepper.integrate(st, 0.5)
    assert np.all(final.u == 0) and np.all(final.v == 0)


def test_linear_energy_conserved():
    pair = _witness(p=2, N=8)
    st = witness_state(pair, 20)
    stepper = Stepper(SimConfig(p=2, K=20, sign=0))
    e0 = linear_energy(st)
    for _ in range(200):
        st = stepper.step(st)
    e1 = linear_energy(st)
    mask = e0 > 0
    assert np.abs(e1[mask] / e0[mask] - 1.0).max() < 1e-12


def test_linear_energy_of_a_stacked_state_matches_its_rows():
    # a (3, K+1) state raised "operands could not be broadcast together":
    # k was built from the state's size, not its last axis
    rng = np.random.default_rng(3)
    u, v = (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
            for _ in range(2))
    energy = linear_energy(SimState(0.0, u, v))
    assert energy.shape == (3, 5)
    for row, (ur, vr) in zip(energy, zip(u, v)):
        assert row.tobytes() == linear_energy(SimState(0.0, ur, vr)).tobytes()


def test_mode_zero_stays_dark():
    # the xi^2 prefactor kills transfer into the zero mode
    pair = _witness(p=2, N=4)
    st = witness_state(pair, 16)
    final = Stepper(SimConfig(p=2, K=16, dt=5e-3, sign=1)).integrate(st, 0.5)
    assert abs(final.u[0]) == 0.0
    assert abs(final.v[0]) == 0.0


def test_dealias_stable_under_cutoff_doubling():
    # zero-padded products: enlarging K only adds genuinely new modes
    pair = _witness(p=2, N=4)
    finals = {}
    for K in (20, 40):
        st = witness_state(pair, K)
        finals[K] = Stepper(SimConfig(p=2, K=K, dt=1e-3, sign=1)).integrate(
            st, 0.5)
    scale = np.abs(finals[40].u).max()
    assert np.abs(finals[20].u - finals[40].u[:21]).max() < 1e-8 * scale


def test_time_reversal_fourth_order():
    # forward then velocity-flipped backward lands on the data at O(dt^4)
    pair = _witness(p=2, N=4)

    def reversal_error(dt):
        st = witness_state(pair, 20)
        fwd = Stepper(SimConfig(p=2, K=20, dt=dt, sign=1)).integrate(st, 0.4)
        back = Stepper(SimConfig(p=2, K=20, dt=dt, sign=1)).integrate(
            SimState(0.0, fwd.u.copy(), -fwd.v.copy()), 0.4)
        orig = witness_state(pair, 20)
        return np.abs(back.u - orig.u).max() + np.abs(back.v + orig.v).max()

    e1, e2 = reversal_error(4e-3), reversal_error(2e-3)
    assert e2 < e1 / 10.0
    assert e2 < 1e-6


def test_nonlinear_homogeneity():
    # window response scales like the p-th power of the data size
    pair = _witness(p=2, N=8)
    out = {}
    for scale in (1e-3, 1e-4):
        st = witness_state(pair, 36)
        st.u *= scale
        st.v *= scale
        final = Stepper(SimConfig(p=2, K=36, dt=2e-3, sign=1)).integrate(
            st, 0.6)
        out[scale] = abs(final.u[1])
    assert out[1e-3] / out[1e-4] == pytest.approx(100.0, rel=1e-2)


def test_blowup_guard():
    pair = _witness(p=2, N=4)
    st = witness_state(pair, 8)
    st.u *= 1e10
    st.v *= 1e10
    stepper = Stepper(SimConfig(p=2, K=8, sign=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SimulationBlowup) as info:
            stepper.integrate(st, 10.0)
    assert info.value.t_last_good < 10.0
    assert np.all(np.isfinite(info.value.state.u))


def test_errors_survive_a_pickle_round_trip():
    # a worker process sends its error back pickled; both errors took more
    # constructor arguments than they kept in args, so unpickling raised
    # TypeError
    state = SimState(0.25, np.arange(3.0) + 1j, np.arange(3.0) - 1j)
    blowup = pickle.loads(pickle.dumps(SimulationBlowup("x", 1.0, state)))
    assert (type(blowup), str(blowup), blowup.t_last_good) == (
        SimulationBlowup, "x", 1.0)
    assert blowup.state.t == 0.25
    assert np.array_equal(blowup.state.u, state.u)
    assert np.array_equal(blowup.state.v, state.v)
    assert pickle.loads(pickle.dumps(SimulationBlowup("y", 2))).state is None
    budget = pickle.loads(pickle.dumps(ResourceBudgetError("z", 3, 4.5)))
    assert (type(budget), str(budget), budget.estimated, budget.budget) == (
        ResourceBudgetError, "z", 3.0, 4.5)


def test_integrate_observer_and_remainder():
    stepper = Stepper(SimConfig(p=2, K=8, dt=0.1, sign=0))
    st = SimState(0.0, np.zeros(9, dtype=complex), np.zeros(9, dtype=complex))
    times = []
    final = stepper.integrate(st, 0.35, observer=lambda s: times.append(s.t))
    assert final.t == 0.35
    assert times[0] == 0.0 and times[-1] == 0.35
    assert len(times) == 5   # start, 3 full steps, remainder
    with pytest.raises(ValueError):
        stepper.integrate(SimState(1.0, st.u, st.v), 0.5)


@pytest.mark.parametrize("dt", [1.0, 1e300])
def test_step_above_t_end_takes_one_remainder_step(dt):
    # a remainder below 1e-12 * max(1, dt) was skipped, so dt = 1e300
    # never moved the state and reported t = 0; both dt now take the
    # same single step of 0.01
    cfg = WitnessConfig(Domain.TORUS, 2, 8, s=-1.0, sigma=0.0)
    state = witness_state(build_witness(cfg), 32)
    stepper = Stepper(SimConfig(p=2, K=32, dt=dt))
    times = []
    final = stepper.integrate(state, 0.01,
                              observer=lambda s: times.append(s.t))
    ref = Stepper(SimConfig(p=2, K=32, dt=0.01)).integrate(state, 0.01)
    assert times == [0.0, 0.01] and final.t == 0.01
    assert np.array_equal(final.u, ref.u) and np.array_equal(final.v, ref.v)


def test_batched_rows_match_single_solves():
    # a batched state is advanced row by row: bit-identical to solving
    # each row alone, remainder step included
    pair = _witness(p=3, N=6)
    K = 24
    base = witness_state(pair, K)
    amps = np.array([2e-2, -1e-2, 3e-2])[:, None]
    for p in (2, 3):
        for sign in (1, -1):
            stepper = Stepper(SimConfig(p=p, K=K, dt=2e-3, sign=sign))
            batch = stepper.integrate(
                SimState(0.0, amps * base.u, amps * base.v), 0.0517)
            assert batch.u.shape == (3, K + 1)
            for i, a in enumerate(amps[:, 0]):
                row = stepper.integrate(
                    SimState(0.0, a * base.u, a * base.v), 0.0517)
                assert np.array_equal(batch.u[i], row.u)
                assert np.array_equal(batch.v[i], row.v)


def _lockstep_parts(p, sign, shapes, amps, dt=2e-3, K=24):
    """A stepper at dt, and a dt part and a 2 dt part for it of the given
    state shapes, seeded data scaled by amps."""
    rng = np.random.default_rng(10 * p + sign)
    decay = 1.0 / (1.0 + np.arange(K + 1))
    parts = []
    for step, shape, amp in zip((dt, 2.0 * dt), shapes, amps):
        u, v = (amp * decay * (rng.normal(size=shape)
                               + 1j * rng.normal(size=shape))
                for _ in range(2))
        parts.append((SimState(0.0, u, v), step, None))
    return Stepper(SimConfig(p=p, K=K, dt=dt, sign=sign)), parts


def _stepper_at(stepper, dt):
    """A stepper of stepper's equation at step dt, to integrate one
    lockstep part alone."""
    return Stepper(SimConfig(p=stepper.p, K=stepper.K, dt=dt,
                             sign=stepper.sign))


@pytest.mark.parametrize("sign", [-1, 0, 1])
@pytest.mark.parametrize("p", [2, 3])
def test_lockstep_matches_separate_integrations(p, sign):
    # stacked steps while both parts have full steps left, then the dt
    # part alone, then each remainder: every part gets the bits of its own
    # Stepper.integrate; t_end = 25.85 dt, so 25 fine and 12 coarse full
    # steps, and a remainder in both parts
    t_end = 0.0517
    for shapes in (((25,), (3, 25)), ((3, 25), (25,)), ((3, 25), (3, 25))):
        stepper, parts = _lockstep_parts(p, sign, shapes, (0.2, 0.2))
        finals, steps = _integrate_lockstep(stepper, parts, t_end)
        assert steps == [26, 13]
        for (state, dt, _), final in zip(parts, finals):
            alone = _stepper_at(stepper, dt).integrate(state, t_end)
            assert final.t == alone.t == t_end
            assert final.u.shape == state.u.shape
            assert np.array_equal(final.u, alone.u)
            assert np.array_equal(final.v, alone.v)


def test_one_stepper_per_lockstep_run(monkeypatch):
    # the probe's dt and 2 dt ladders are two parts on one stepper, and
    # inflation's s runs at one N are parts on one stepper for that N
    built = []
    init = Stepper.__init__

    def counting(self, config):
        built.append(config)
        init(self, config)
    monkeypatch.setattr(Stepper, "__init__", counting)
    res = fd_derivative_probe(_witness(p=2, N=6), 2, 0.35)
    assert [(cfg.K, cfg.dt) for cfg in built] == [(res.meta["K"],
                                                   res.meta["dt"])]
    built.clear()
    _inflate([8, 16], s_list=(-0.6, 0.0))
    assert [cfg.K for cfg in built] == [18, 34]


def test_lockstep_blowup_names_its_part():
    # the 2 dt part blows up after 48 steps, while both parts step
    # stacked; the error carries that part's last good state, as its own
    # integration reports it
    stepper, parts = _lockstep_parts(2, 1, ((25,), (3, 25)), (1e-2, 5.0))
    state, dt, _ = parts[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SimulationBlowup) as alone:
            _stepper_at(stepper, dt).integrate(state, 1.0)
        with pytest.raises(SimulationBlowup) as info:
            _integrate_lockstep(stepper, parts, 1.0)
    assert str(info.value) == str(alone.value)
    assert info.value.t_last_good == alone.value.t_last_good > 0.0
    assert info.value.state.u.shape == (3, 25)
    assert np.array_equal(info.value.state.u, alone.value.state.u)
    assert np.array_equal(info.value.state.v, alone.value.state.v)


def test_shadow_parts_keep_their_bits():
    # the trajectory and its 2 dt shadow each get the bits of their own
    # integration, and the observer sees what it sees in integrate; with
    # under two full 2 dt steps no shadow is run
    stepper, ((state, dt, _), _) = _lockstep_parts(2, 1, ((25,), (25,)),
                                                   (0.2, 0.2))
    seen, seen_alone = [], []
    final, shadow = stepper.integrate_with_shadow(
        state, 0.0517, observer=lambda st: seen.append((st.t, st.u)))
    alone = stepper.integrate(
        state, 0.0517, observer=lambda st: seen_alone.append((st.t, st.u)))
    coarse = _stepper_at(stepper, 2.0 * dt).integrate(state, 0.0517)
    assert [t for t, _u in seen] == [t for t, _u in seen_alone]
    assert all(np.array_equal(a, b) for (_t, a), (_s, b)
               in zip(seen, seen_alone))
    for got, ref in ((final, alone), (shadow, coarse)):
        assert got.t == ref.t == 0.0517
        assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)
    assert has_shadow(dt, 4.0 * dt) and not has_shadow(dt, 3.9 * dt)
    final, shadow = stepper.integrate_with_shadow(state, 3.9 * dt)
    assert shadow is None
    assert np.array_equal(final.u, stepper.integrate(state, 3.9 * dt).u)


def test_shadow_blowup_does_not_end_the_run():
    # at 5x the witness and dt = 0.03 the trajectory reaches t = 1 while
    # its 2 dt shadow blows up: the run ends as the trajectory alone ends,
    # and the shadow comes back not finite
    pair = _witness(p=2, N=16)
    state = witness_state(pair, 68)
    state.u *= 5.0
    state.v *= 5.0
    stepper = Stepper(SimConfig(p=2, K=68, dt=0.03))
    final, shadow = stepper.integrate_with_shadow(state, 1.0)
    alone = stepper.integrate(state, 1.0)
    assert np.array_equal(final.u, alone.u) and np.array_equal(final.v,
                                                                alone.v)
    assert shadow.t == 1.0 and not np.isfinite(shadow.u).all()
    with pytest.raises(SimulationBlowup):
        _stepper_at(stepper, 0.06).integrate(state, 1.0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_flow_is_exactly_odd(p):
    # for odd p every stepper operation commutes with negation under
    # round-to-nearest, so the solve from -data is the negated solve,
    # remainder step included; the probe's half ladder relies on this
    K = 24
    rng = np.random.default_rng(p)
    decay = 1.0 / (1.0 + np.arange(K + 1))
    u, v = (decay * (rng.normal(size=(3, K + 1))
                     + 1j * rng.normal(size=(3, K + 1))) for _ in range(2))
    amps = np.array([0.2, 2e-2, 0.3])[:, None]
    finals = {}
    for sign in (-1, 0, 1):
        stepper = Stepper(SimConfig(p=p, K=K, dt=2e-3, sign=sign))
        a = stepper.integrate(SimState(0.0, amps * u, amps * v), 0.0517)
        b = stepper.integrate(SimState(0.0, -amps * u, -amps * v), 0.0517)
        assert np.array_equal(-a.u, b.u)
        assert np.array_equal(-a.v, b.v)
        finals[sign] = a.u
    # the nonlinearity is felt, so the symmetry is not the linear one alone
    assert np.abs(finals[1] - finals[0]).max() > 1e-6


def _integrate_sequential(stepper, state, t_end, observer=None):
    """Stepper.integrate's step sequence with the IF-RK4 stages evaluated
    one nonlinear call at a time, in dependency order, as a reference;
    observer(t, u, v), when given, sees the state after every step."""

    def step(u, v, dt):
        (c1, s1, ls1), (c2, s2, ls2) = [free_flow_rotation(stepper.lam, h)
                                        for h in (dt, dt / 2.0)]
        g1 = stepper.nonlinear(u)
        g2 = stepper.nonlinear(c2 * u + s2 * (v + 0.5 * dt * g1))
        u_half = c2 * u + s2 * v
        g3 = stepper.nonlinear(u_half)
        u_full = c1 * u + s1 * v
        v_full = -ls1 * u + c1 * v
        g4 = stepper.nonlinear(u_full + dt * s2 * g3)
        u_new = u_full + dt / 6.0 * (s1 * g1 + 2.0 * s2 * (g2 + g3))
        v_new = v_full + dt / 6.0 * (c1 * g1 + 2.0 * c2 * (g2 + g3) + g4)
        return u_new, v_new

    observer = observer or (lambda t, u, v: None)
    t, u, v = state.t, state.u, state.v
    for _ in range(int(math.floor((t_end - t) / stepper.dt + 1e-12))):
        u, v = step(u, v, stepper.dt)
        t += stepper.dt
        observer(t, u, v)
    rem = t_end - t
    if rem > 1e-12 * max(1.0, abs(t_end)):
        u, v = step(u, v, rem)
        observer(t_end, u, v)
    return u, v


@pytest.mark.parametrize("K", [24, 68, 132, 260, 516])
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_paired_stages_match_sequential_step(p, K):
    # two stacked nonlinear calls per step give the same bits as four
    # sequential ones, for one-row and 3-row states, remainder included
    rng = np.random.default_rng(1000 * p + K)
    decay = 1.0 / (1.0 + np.arange(K + 1))
    for shape in ((K + 1,), (3, K + 1)):
        u = decay * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        v = decay * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for sign in (1, -1, 0):
            stepper = Stepper(SimConfig(p=p, K=K, sign=sign))
            t_end = 3.4 * stepper.dt
            got = stepper.integrate(SimState(0.0, u, v), t_end)
            ref_u, ref_v = _integrate_sequential(
                stepper, SimState(0.0, u, v), t_end)
            assert got.u.shape == shape
            assert np.array_equal(got.u, ref_u)
            assert np.array_equal(got.v, ref_v)


@pytest.mark.parametrize("sign", [-1, 0, 1])
@pytest.mark.parametrize("p", [2, 3])
def test_lockstep_matches_sequential_reference(p, sign):
    # the stacked lockstep loop against the one-call-per-stage reference:
    # dt and 2 dt parts of 4 rows each, t_end = 25.85 dt, so both parts
    # take a remainder step
    t_end = 0.0517
    stepper, parts = _lockstep_parts(p, sign, ((4, 25), (4, 25)), (0.2, 0.2))
    finals, steps = _integrate_lockstep(stepper, parts, t_end)
    assert steps == [26, 13]
    for (state, dt, _), final in zip(parts, finals):
        ref_u, ref_v = _integrate_sequential(_stepper_at(stepper, dt), state,
                                             t_end)
        assert np.array_equal(final.u, ref_u)
        assert np.array_equal(final.v, ref_v)


def test_observed_states_are_never_overwritten():
    # every state an observer is shown stays as it was shown: a reused
    # stage buffer must not leak into a state that was handed out
    t_end = 0.0517
    stepper, parts = _lockstep_parts(3, 1, ((25,), (4, 25)), (0.2, 0.2))
    seen = [[], []]
    observed = [(state, dt, lambda st, out=out: out.append(st))
                for (state, dt, _), out in zip(parts, seen)]
    _integrate_lockstep(stepper, observed, t_end)
    for (state, dt, _), shown in zip(parts, seen):
        ref = [(state.t, state.u, state.v)]
        _integrate_sequential(_stepper_at(stepper, dt), state, t_end,
                              lambda t, u, v: ref.append((t, u, v)))
        assert len(shown) == len(ref)
        for st, (t, u, v) in zip(shown, ref):
            assert st.t == t
            assert np.array_equal(st.u, u) and np.array_equal(st.v, v)


def test_two_nonlinear_calls_per_step(monkeypatch):
    # the four stages are two stacked calls, through Stepper.nonlinear
    calls = []
    nonlinear = Stepper.nonlinear

    def counting(self, u_hat, out=None):
        calls.append(u_hat.shape)
        return nonlinear(self, u_hat, out)
    monkeypatch.setattr(Stepper, "nonlinear", counting)
    stepper, parts = _lockstep_parts(2, 1, ((25,), (25,)), (0.2, 0.2))
    stepper.integrate(parts[0][0], 0.0517)      # 25 full steps, remainder
    assert len(calls) == 2 * 25 + 2
    # stacked steps count once: 12 shared, 13 of the dt part alone and
    # one remainder step per part
    calls.clear()
    stepper, parts = _lockstep_parts(2, 1, ((25,), (3, 25)), (0.2, 0.2))
    _integrate_lockstep(stepper, parts, 0.0517)
    assert len(calls) == 2 * (12 + 13 + 2)
    assert calls[0] == (2, 4, 25)


def _nonlinear_by_pow(stepper, u_hat):
    """The nonlinear term with u^p through pow, as a reference."""
    spec = np.zeros(stepper.M // 2 + 1, dtype=complex)
    spec[: stepper.K + 1] = u_hat
    phys = np.fft.irfft(spec * stepper.M, n=stepper.M)
    w = np.fft.rfft(phys ** stepper.p) / stepper.M
    return stepper.sign * stepper.k2 * w[: stepper.K + 1]


def test_nonlinear_products_match_pow():
    rng = np.random.default_rng(7)
    K = 20
    u_hat = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    for p in range(2, 10):
        stepper = Stepper(SimConfig(p=p, K=K, dt=1e-3, sign=1))
        got = stepper.nonlinear(u_hat)
        ref = _nonlinear_by_pow(stepper, u_hat)
        if p == 2:
            assert np.array_equal(got, ref)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("K", [33, 68, 132])
def test_nonlinear_matches_direct_convolution(K):
    # an oracle with no FFT: the p-fold convolution of the full band
    # -K..K, truncated to 0..K. Grids of M = 100 to 800, none a power of
    # two; a grid too small to pad, M >= p K + 1 only, misses by 3e-3 or
    # more, since the products alias back onto the kept modes
    rng = np.random.default_rng(K)
    u_hat = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    u_hat[0] = u_hat[0].real
    full = np.concatenate([u_hat[:0:-1].conj(), u_hat])
    k = np.arange(K + 1)
    for p in range(2, 6):
        power = full
        for _ in range(p - 1):
            power = np.convolve(power, full)
        for sign in (1, -1):
            stepper = Stepper(SimConfig(p=p, K=K, dt=1e-3, sign=sign))
            ref = sign * k ** 2 * power[p * K: p * K + K + 1]
            got = stepper.nonlinear(u_hat)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# -- derivative probe ------------------------------------------------------------------

def test_stencil_weights_frozen():
    offs, w = _stencil_weights(2)
    assert list(offs) == [-1, 0, 1]
    assert np.allclose(w, [1.0, -2.0, 1.0])
    offs, w = _stencil_weights(3)
    assert list(offs) == [-2, -1, 0, 1, 2]
    assert np.allclose(w, [-0.5, 1.0, 0.0, -1.0, 0.5])
    offs, w = _stencil_weights(4)
    assert np.allclose(w, [1.0, -4.0, 6.0, -4.0, 1.0])


def test_probe_matches_exact_functional():
    pair = _witness(p=2, N=8)
    t = 0.7
    exact = flow_derivative_torus(pair, 2, t).values[0]
    res = fd_derivative_probe(pair, 2, t)
    assert res.converged
    assert res.rel_spread < 0.05
    assert abs(res.value - exact) < 1e-6 * abs(exact)
    assert res.meta["n_solves"] == 4
    assert len(res.estimates) == 2


def test_probe_zero_when_nonlinearity_off():
    pair = _witness(p=2, N=8)
    res = fd_derivative_probe(pair, 2, 0.7, sign=0)
    assert res.value == 0.0
    assert res.meta["dt_err_est"] == 0.0
    assert res.converged


def test_probe_sign_flip():
    pair = _witness(p=2, N=6)
    plus = fd_derivative_probe(pair, 2, 0.5, sign=1)
    minus = fd_derivative_probe(pair, 2, 0.5, sign=-1)
    assert minus.value == pytest.approx(-plus.value, rel=1e-9)
    assert minus.meta["dt_err_est"] == pytest.approx(
        plus.meta["dt_err_est"], rel=1e-6)


def test_probe_step_rule_and_work_count():
    # dt resolves the witness phases; the 2 dt ladder repeats every solve
    pair = _witness(p=2, N=8)
    t = 0.7
    res = fd_derivative_probe(pair, 2, t)
    max_freq = pair.u0.support.max_frequency()
    dt = 2.0 / dispersion(max_freq)
    assert res.meta["dt"] == dt
    # t is no multiple of either step: full steps plus one remainder step
    per_solve = math.ceil(t / dt) + math.ceil(t / (2.0 * dt))
    assert res.meta["n_steps"] == res.meta["n_solves"] * per_solve


def test_probe_time_error_estimate():
    # the step-doubling estimate tracks the time error of the dt ladder's
    # value and bounds the error of the extrapolated value
    pair = _witness(p=3, N=16)
    t = 0.35
    exact = flow_derivative_torus(pair, 3, t).values[0]
    res = fd_derivative_probe(pair, 3, t)
    coarse_eps, fine_eps = res.estimates
    at_dt = fine_eps + (fine_eps - coarse_eps) / 3.0
    err_dt = abs(at_dt - exact) / abs(exact)
    est = res.meta["dt_err_est"]
    assert err_dt / 3.0 <= est <= 3.0 * err_dt
    assert abs(res.value - exact) <= est * abs(exact)
    assert res.converged
    # at N = 1 the uncapped dt exceeds t / 2, where both ladders took one
    # identical remainder step and the estimate read 0 over errors up to
    # 0.84; capped at t / 4, the estimate and the ladder spread bound the
    # error, or the probe says it did not converge
    for p, converged in ((2, True), (4, True), (8, True), (12, False)):
        pair = _witness(p=p, N=1)
        exact = flow_derivative_torus(pair, p, t).values[0]
        res = fd_derivative_probe(pair, p, t)
        err = abs(res.value - exact) / abs(exact)
        assert res.meta["dt"] == t / 4.0
        assert res.converged == converged
        assert err <= res.meta["dt_err_est"] + res.rel_spread or not converged


def _full_ladder_probe(pair, p, t, sign, meta, eps_list=(2.5e-3, 1.25e-3)):
    """fd_derivative_probe with every amplitude of the ladder integrated,
    negative ones included, as a reference for the odd-p half ladder; the
    cutoff K and the step dt are the probe's own, read from its meta.
    Returns the value, the estimates, the relative spread, the converged
    flag, the time-error estimate and the row steps integrated."""
    mode = int(pair.output_window)
    K, dt = meta["K"], meta["dt"]
    base = witness_state(pair, K)
    offsets, weights = _stencil_weights(p)
    stencil = [(off, w) for off, w in zip(offsets, weights)
               if w != 0.0 and off != 0]
    amps = {}
    for eps in eps_list:
        for off, _w in stencil:
            amps.setdefault(round(off * eps, 14), off * eps)
    rows = np.array(list(amps.values()))[:, None]
    row_steps = 0

    def ladder(step):
        nonlocal row_steps
        stepper = Stepper(SimConfig(p=p, K=K, dt=step, sign=sign))
        times = []
        final = stepper.integrate(SimState(0.0, rows * base.u, rows * base.v),
                                  t, observer=lambda st: times.append(st.t))
        row_steps += len(amps) * (len(times) - 1)
        coeff = dict(zip(amps, final.u[:, mode].tolist()))
        estimates = []
        for eps in eps_list:
            acc = 0.0 + 0.0j
            for off, w in stencil:
                acc += w * coeff[round(off * eps, 14)]
            estimates.append(acc / eps ** p)
        r = eps_list[-2] / eps_list[-1]
        return estimates, (estimates[-1] + (estimates[-1] - estimates[-2])
                           / (r * r - 1.0))

    estimates, fine = ladder(dt)
    _, coarse = ladder(2.0 * dt)
    value = fine + (fine - coarse) / 15.0
    scale = max(abs(value), 1e-300)
    rel_spread = abs(estimates[0] - estimates[-1]) / scale
    dt_err_est = abs(fine - coarse) / 15.0 / scale
    converged = rel_spread <= 0.05 and dt_err_est <= 0.05
    return value, estimates, rel_spread, converged, dt_err_est, row_steps


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [6, 16])
@pytest.mark.parametrize("sign", [1, -1])
def test_probe_matches_full_ladder(p, N, sign):
    # reading the negative amplitudes of an odd-p ladder by symmetry gives
    # the bits of integrating them; only the row steps taken differ
    pair = _witness(p=p, N=N)
    res = fd_derivative_probe(pair, p, 0.35, sign=sign)
    value, estimates, rel_spread, converged, dt_err_est, row_steps = \
        _full_ladder_probe(pair, p, 0.35, sign, res.meta)
    assert res.value == value
    assert res.estimates == estimates
    assert res.rel_spread == rel_spread
    assert res.converged == converged
    assert res.meta["dt_err_est"] == dt_err_est
    # odd p integrates half the rows, even p all of them
    assert res.meta["n_steps"] == (row_steps // 2 if p % 2 else row_steps)
    if (p, N) == (3, 16):
        assert (res.meta["n_solves"], res.meta["n_steps"]) == (6, 810)
        assert row_steps == 1620


@pytest.mark.parametrize("p,N", [(p, N) for p in range(2, 6) for N in (6, 16)]
                         + [(10, 1), (14, 2)])
def test_probe_cutoff_covers_support_and_output_mode(p, N):
    # the p-th iterate needs the support and the output mode, no more; at
    # p = 10, N = 1 and p = 14, N = 2 the mode lies beyond twice the
    # support, where a cutoff of 2 * support ended in an IndexError
    pair = _witness(p=p, N=N)
    res = fd_derivative_probe(pair, p, 0.35)
    support = int(round(pair.u0.support.max_frequency()))
    assert res.meta["K"] == max(support, pair.output_window)
    assert np.isfinite(res.value)


def test_probe_shares_ladder_solves():
    # eps and eps/2 stencil amplitudes overlap for p = 3: 6 unique solves
    pair = _witness(p=3, N=6)
    res = fd_derivative_probe(pair, 3, 0.5)
    assert res.meta["n_solves"] == 6


# -- inflation ---------------------------------------------------------------------------

def _inflate(N_list, s_list=(-0.6,), delta=1e-2, t_end=0.5):
    return inflation_experiment(s_list, N_list, p=2, delta=delta,
                                t_end=t_end, sign=1)


def test_inflation_positive_control():
    (result,) = _inflate([8, 16])
    sups = result.sup_norms()
    assert len(sups) == 2
    assert all(s > 0 for s in sups)
    assert result.rows[0].data_scale > 0
    assert result.rows[0].t_peak <= 0.5
    # the sup is a sup: no smaller than the initial window mass
    for row in result.rows:
        assert row.sup_window_norm >= row.initial_window_norm


def test_inflation_validation():
    with pytest.raises(ValueError):
        _inflate([8], delta=-1.0)
    with pytest.raises(ValueError):
        _inflate([8], t_end=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite delta"):
            _inflate([8], delta=bad)
    # an empty s list ended in a ZeroDivisionError
    with pytest.raises(ValueError,
                       match="need at least one s, got an empty list"):
        inflation_experiment([], [16], p=2, delta=1e-2, t_end=0.01, sign=1)


def test_inflation_blowup_carries_its_s_run():
    # at delta = 10 the s = -0.6 run blows up and the s = 0 run does not;
    # the error carries the s = -0.6 run's last good state, as that run
    # alone reports it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SimulationBlowup) as alone:
            _inflate([8], s_list=(-0.6,), delta=10.0, t_end=1.0)
        with pytest.raises(SimulationBlowup) as info:
            _inflate([8], s_list=(-0.6, 0.0), delta=10.0, t_end=1.0)
        _inflate([8], s_list=(0.0,), delta=10.0, t_end=1.0)
    assert str(info.value) == str(alone.value)
    assert info.value.t_last_good == alone.value.t_last_good > 0.0
    assert info.value.state.u.shape == (19,)
    assert np.array_equal(info.value.state.u, alone.value.state.u)
    assert np.array_equal(info.value.state.v, alone.value.state.v)


def test_inflation_record_matches_window_norms_of_each_state():
    # the record, cut once at the default size by the 1,361 states of this
    # run, gives the sup (first largest), its t and the initial norm that
    # windowed_norm gives state by state
    s_list, N, t_end = (-0.6, 0.0), 16, 2.0
    results = _inflate([N], s_list=s_list, t_end=t_end)
    cfg = SimConfig(p=2, K=simulator._inflation_cutoff(2, N), sign=1,
                    dt=simulator.INFLATION_DT_FACTOR / (2 * N + 2))
    for s, result in zip(s_list, results):
        row = result.rows[0]
        state = witness_state(build_witness(
            WitnessConfig(Domain.TORUS, 2, N, s)), cfg.K)
        state.u *= row.data_scale
        state.v *= row.data_scale
        seen = []
        Stepper(cfg).integrate(state, t_end, observer=lambda st: seen.append(
            (windowed_norm(st, simulator.INFLATION_WINDOW, s), st.t)))
        sup = max(w for w, _t in seen)
        assert row.initial_window_norm == seen[0][0]
        assert (row.sup_window_norm, row.t_peak) == next(
            (w, t) for w, t in seen if w == sup)
        assert row.t_peak < 0.6 * t_end     # an interior peak


@pytest.mark.parametrize("n_rows", [3, 4, 7, 100, 1024])
def test_inflation_full_record_keeps_its_first_peak(monkeypatch, n_rows):
    # a run that shows more states than the record holds (721 at N = 8,
    # 1,361 at N = 16) norms the full record, keeps row 0 and the first
    # largest row, and ends with the bits of a record that held every
    # state; with sign 0 nothing reaches the window, so every norm is 0
    # and every full record ties at row 0
    def run(sign, rows):
        monkeypatch.setattr(simulator, "INFLATION_RECORD_ROWS", rows)
        return inflation_experiment((-0.6, 0.0), [8, 16], p=2, delta=1e-2,
                                    t_end=2.0, sign=sign)
    whole = [run(sign, 2000) for sign in (1, 0)]
    # the peaks are interior: at t = 1.025 (N = 8) and 1.0956 (N = 16)
    assert all(r.t_peak < 1.2 for res in whole[0] for r in res.rows)
    for sign, results in zip((1, 0), whole):
        for held, full in zip(run(sign, n_rows), results):
            assert [vars(r) for r in held.rows] == [vars(r) for r in full.rows]
    assert all(r.t_peak == 0.0 for res in whole[1] for r in res.rows)


def test_inflation_runs_as_parts_match_separate_runs():
    # criterion 8 integrates its two s as two parts of one lockstep run
    # per N: each part keeps the bits of its own one-s run
    both = _inflate([8, 16], s_list=(-0.6, 0.0))
    for s, result in zip((-0.6, 0.0), both):
        (alone,) = _inflate([8, 16], s_list=(s,))
        assert (result.p, result.s, result.delta, result.t_end) == (
            alone.p, alone.s, alone.delta, alone.t_end)
        assert [vars(r) for r in result.rows] == [vars(r)
                                                 for r in alone.rows]


@pytest.mark.parametrize("p,sign,delta,N_list,s_list,tol", [
    (2, 1, 1e-2, [16, 32], (-0.6, 0.0), 1e-13),
    (3, -1, 0.3, [16], (0.0,), 1e-12),
    (5, -1, 0.3, [16], (0.0,), 1e-12),
])
def test_inflation_cutoff_against_twice_it(monkeypatch, p, sign, delta,
                                           N_list, s_list, tol):
    # the cutoff p F resolves the run: at twice the cutoff the sup norms
    # agree to tol and the peaks fall on the same step. A cutoff of
    # 4(N + 1) errs by 4.1e-9 at p = 3 and 5.8e-6 at p = 5 here
    def run():
        return inflation_experiment(s_list, N_list, p=p, delta=delta,
                                    t_end=1.0, sign=sign)
    ours = run()
    rule, sized = simulator._inflation_cutoff, []

    def doubled(p, N):
        sized.append(N)
        return 2 * rule(p, N)
    monkeypatch.setattr(simulator, "_inflation_cutoff", doubled)
    finer = run()
    assert sized == N_list
    for a, b in zip(ours, finer):
        for row, fine in zip(a.rows, b.rows):
            assert row.sup_window_norm == pytest.approx(
                fine.sup_window_norm, rel=tol, abs=0.0)
            assert row.t_peak == fine.t_peak


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Every bin of inflation worth a fork, over three usable CPUs; the
    list of forks made, one pid each."""
    made, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            made.append(pid)
        return pid
    monkeypatch.setattr(simulator, "FORK_MIN_WORK", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "fork", counting)
    return made


def test_work_bins_longest_first(monkeypatch):
    # each next-heaviest job joins the lightest bin; fewer bins while the
    # lightest holds less than the caller's least load, one where fork is
    # missing
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert workers.work_bins([1, 2, 3, 4, 10], 3.0) == [[4], [0, 1, 2, 3]]
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    assert workers.work_bins([5, 5, 1], 3.0) == [[0, 2], [1]]
    assert workers.work_bins([5, 5, 3], 3.0) == [[0], [1], [2]]
    assert workers.work_bins([1, 1, 1], 3.0) == [[0, 1, 2]]
    assert workers.work_bins([10], 3.0) == [[0]]
    monkeypatch.delattr(os, "fork")
    assert workers.work_bins([5, 5, 3], 3.0) == [[0, 1, 2]]


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert workers.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert workers.usable_cpus() == 8


def test_inflation_forked_rows_match_in_process_rows(forks, monkeypatch):
    # three bins, two of them in children: the rows keep the bits of the
    # runs made in this process
    s_list, N_list = (-0.6, 0.0), [8, 16, 32]
    forked = _inflate(N_list, s_list=s_list)
    assert len(forks) == 2
    monkeypatch.setattr(simulator, "FORK_MIN_WORK", math.inf)
    here = _inflate(N_list, s_list=s_list)
    assert len(forks) == 2
    for a, b in zip(forked, here):
        assert (a.p, a.s, a.delta, a.t_end) == (b.p, b.s, b.delta, b.t_end)
        assert [vars(r) for r in a.rows] == [vars(r) for r in b.rows]
    _no_child_left()


def test_inflation_one_cpu_runs_in_process(forks, monkeypatch):
    # a one-CPU affinity mask forks nothing and gives the same bits
    forked = _inflate([8, 16, 32], s_list=(-0.6, 0.0))
    assert len(forks) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    here = _inflate([8, 16, 32], s_list=(-0.6, 0.0))
    assert len(forks) == 2
    for a, b in zip(forked, here):
        assert [vars(r) for r in a.rows] == [vars(r) for r in b.rows]


def test_inflation_blowup_in_a_child_carries_its_s_run(forks, monkeypatch):
    # test_inflation_blowup_carries_its_s_run with N = 8 in a child: N = 16,
    # in this process, blows up too, and the error is N = 8's, the first
    # in N order, as the in-process run raises it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SimulationBlowup) as info:
            _inflate([8, 16], s_list=(-0.6, 0.0), delta=10.0, t_end=1.0)
        assert len(forks) == 1
        monkeypatch.setattr(simulator, "FORK_MIN_WORK", math.inf)
        with pytest.raises(SimulationBlowup) as alone:
            _inflate([8], s_list=(-0.6,), delta=10.0, t_end=1.0)
    assert str(info.value) == str(alone.value)
    assert info.value.t_last_good == alone.value.t_last_good > 0.0
    assert info.value.state.u.shape == (19,)
    assert np.array_equal(info.value.state.u, alone.value.state.u)
    assert np.array_equal(info.value.state.v, alone.value.state.v)
    _no_child_left()


def test_run_bins_raises_the_first_error_in_index_order():
    # a loop over the indices raises the error of the first failing job,
    # whichever bin it ran in
    def failing(*bad):
        def job(i):
            if i in bad:
                raise ValueError(f"job {i}")
            return [i * i]
        return job
    bins = [[0, 3], [1, 2]]     # 0 and 3 here, 1 and 2 in a child
    assert workers.run_bins(failing(), bins) == [[0], [1], [4], [9]]
    for bad, first in [((1, 3), "job 1"), ((3,), "job 3"), ((2,), "job 2"),
                       ((0, 1), "job 0")]:
        with pytest.raises(ValueError, match=first):
            workers.run_bins(failing(*bad), bins)
    _no_child_left()


def test_run_bins_kills_its_children_when_interrupted():
    # an interrupt in this process's bin kills and reaps the child that is
    # still running its bin
    def job(i):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(60.0)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        workers.run_bins(job, [[0], [1]])
    assert time.perf_counter() - start < 30.0
    _no_child_left()


def test_inflation_cutoff_is_p_times_top_frequency():
    # N + 1 for even p and 2N for odd p, read from the frequency set
    assert [simulator._inflation_cutoff(2, N) for N in (16, 128)] == [34, 258]
    assert simulator._inflation_cutoff(4, 16) == 68
    assert [simulator._inflation_cutoff(p, 16) for p in (3, 5)] == [96, 160]


def test_inflation_window_norm_does_not_underflow():
    # at s = 100 the window modes' amplitudes at t_end are about 1e-199 and
    # 1e-215, whose squares underflowed: the sup read 0 at t = 0
    mp = pytest.importorskip("mpmath")
    s, N, t_end, delta = 100.0, 8, 0.05, 1e-2
    (result,) = inflation_experiment([s], [N], p=2, delta=delta,
                                     t_end=t_end, sign=1)
    row = result.rows[0]
    # the run's own coefficients at t_end, as inflation_experiment sets it up
    cfg = SimConfig(p=2, K=simulator._inflation_cutoff(2, N), sign=1,
                    dt=simulator.INFLATION_DT_FACTOR / (2 * N + 2))
    pair = build_witness(WitnessConfig(Domain.TORUS, 2, N, s))
    state = witness_state(pair, cfg.K)
    state.u *= row.data_scale
    state.v *= row.data_scale
    final = Stepper(cfg).integrate(state, t_end)
    exact = mp.sqrt(sum(2 * (1 + m * m) ** mp.mpf(s)
                        * abs(mp.mpc(complex(final.u[m]))) ** 2
                        for m in simulator.INFLATION_WINDOW))
    assert 0 < exact < 1e-170
    assert row.sup_window_norm >= float(exact) * (1 - 1e-12)
    assert row.t_peak > 0
    assert windowed_norm(final, simulator.INFLATION_WINDOW, s) == \
        pytest.approx(float(exact), rel=1e-12)
