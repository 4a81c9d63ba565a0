"""Pseudo-spectral time integration on the circle, and its two consumers:
a finite-difference probe that cross-checks the derivative functional, and
the small-data norm-inflation experiment.

The state is the half spectrum (modes 0..K) of the real pair (u, u_t).
Writing the equation u_tt - u_xx + u_xxxx + sign (u^p)_xx = 0 mode-wise as

    d/dt (u_k, v_k) = (v_k, -lambda(k)^2 u_k + g_k(u)),
    g_k(u) = sign * k^2 * (u^p)_k  (dealiased by zero padding),

the linear part is rotated exactly and the nonlinearity is advanced with a
classical integrating-factor Runge-Kutta 4 scheme (Lawson). Because g feeds
only the velocity slot and depends only on u, the exponential-map stages
simplify to the closed expressions in Stepper._step, and the four stage
evaluations fall into two rounds: the third stage's position does not see
g1, and the second and fourth stages need only g1 and g3. Each round is
one batched call of Stepper.nonlinear: an unscaled inverse FFT, u^p, an
unnormalised forward FFT and one multiply by the row sign k^2 / M. The two
FFTs call the pocketfft gufuncs behind np.fft.irfft and np.fft.rfft
directly, which gives np.fft's bits without its per-call wrapper.

A state may carry leading batch axes (modes on the last axis): every row is
advanced by the same steps, and each row's result is bit-identical to
integrating that row alone. Runs with different step sizes can share the
steps too: _integrate_lockstep advances several (state, dt, observer)
parts on one Stepper, whose equation and grid they share, to one time.
The rows of every part that still has full steps left are stacked with
(u, v) into one (2, R, K+1) array, and a _Workspace built once for that
stack holds the per-row coefficients, dt and every stage buffer, so a
step allocates nothing but its new state. The probe's dt and 2 dt
ladders, a trajectory and its 2 dt shadow, and criterion 8's s runs at
one N are each one lockstep run. check_simulation_budget sizes a run
from numbers alone, before anything of K + 1 modes is built; its work
estimate splits inflation_experiment's independent N runs over the usable
CPUs, with every bin but one in a forked child (workers.run_bins).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np
# the gufuncs behind np.fft.irfft and np.fft.rfft, in a private module of
# numpy 2 (checked on 2.4); test_transforms_match_np_fft pins their bits
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft

from .errors import ResourceBudgetError, SimulationBlowup
from .spectral import (Domain, checked_p, dispersion, free_flow_rotation,
                       hs_norm, hs_norm_prescaled)
from .witness import (WitnessConfig, WitnessPair, build_witness,
                      checked_n_list, data_norm, frequency_set)
from .workers import run_bins, work_bins

NAN_CHECK_EVERY = 16
INFLATION_DT_FACTOR = 0.05      # inflation_experiment's dt times (2N + 2)
INFLATION_WINDOW = (1, 2)       # the low modes inflation_experiment watches
INFLATION_RECORD_ROWS = 1024    # states an inflation run norms per call
PROBE_EPS = (2.5e-3, 1.25e-3)   # fd_derivative_probe's stencil steps
# row steps x M log2 M of one lockstep run; the largest that a criterion or
# a CLI default makes is about 1.3e8 (criterion 6's p = 3, N = 64 probe;
# criterion 8's N = 128 inflation run makes 8.0e7)
SIMULATION_BUDGET = 10 ** 11
# rows x M of one lockstep run, which its buffers scale with; the largest
# that a criterion or a CLI default makes is 3,240 (criterion 6's p = 3,
# N = 64 probe: 6 rows at M = 540; criterion 8's N = 128 run: 2 at 800)
SIMULATION_ROWS_M = 10 ** 6
# the least estimated work (row steps x M log2 M) that a bin of inflation
# runs must hold to get a process of its own: a fork, pipe and pickle round
# trip took 2.2-4.0 ms on a 2-core Xeon, where a unit of inflation work
# took 8 ns at M = 800 and up to 130 ns at M = 60, so such a bin steps for
# at least about 16 ms
FORK_MIN_WORK = 2e6
# the relative time error that simulate's default step is chosen to meet,
# as its 2 dt shadow estimates it (cli.cmd_simulate reports the estimate)
SIMULATION_TIME_TOL = 1e-8


def _fft_good_size(n: int) -> int:
    """Smallest even 2^a 3^b 5^c >= n: for each odd 3^b 5^c below the best
    size so far, the smallest power-of-two multiple >= n (a >= 1), so
    O(log^2 n) candidates."""
    n = max(2, int(n))
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            q = -(-n // odd)
            best = min(best, odd << max(1, (q - 1).bit_length()))
            odd *= 3
        five *= 5
    return best


def _grid_size(p: int, K: int) -> int:
    """The FFT grid of modes 0..K at power p: zero padding keeps products
    of p copies alias-free."""
    return _fft_good_size((p + 1) * K + 1)


def check_simulation_budget(p: int, K: int, t_end: float, parts) -> float:
    """Refuse, with ResourceBudgetError, a lockstep run of modes 0..K at
    power p to t_end whose (start time, dt, rows) parts would exceed
    SIMULATION_BUDGET in row steps (full steps plus one for a remainder)
    x M log2 M, or SIMULATION_ROWS_M in rows x M; return that work
    estimate. It reads only numbers, so a caller can size a run before it
    builds anything of K + 1 modes; a step count that is not finite is
    over budget."""
    M = _grid_size(p, K)
    if M > SIMULATION_BUDGET:   # at any step count; M may exceed a float
        raise ResourceBudgetError(
            f"M={Decimal(M):.3g} alone exceeds the simulation budget "
            f"{SIMULATION_BUDGET:g}", math.inf, SIMULATION_BUDGET)
    steps = [(t_end - t) / dt + 1e-12 for t, dt, _n in parts]
    work = (sum((math.floor(x) + 1.0) * n for x, (_t, _dt, n)
                in zip(steps, parts)) * M * math.log2(M)
            if all(map(math.isfinite, steps)) else math.inf)
    if work > SIMULATION_BUDGET:
        raise ResourceBudgetError(
            f"{work:.3g} row steps x M log2 M at M={M:.3g} exceed the "
            f"simulation budget {SIMULATION_BUDGET:g}", work,
            SIMULATION_BUDGET)
    rows = sum(n for _t, _dt, n in parts)
    if rows * M > SIMULATION_ROWS_M:
        raise ResourceBudgetError(
            f"rows x M = {rows} x {M:.3g} exceeds the simulation memory "
            f"bound {SIMULATION_ROWS_M:g}", rows * M, SIMULATION_ROWS_M)
    return work


@dataclass(frozen=True)
class SimConfig:
    """Discretization: p-th power nonlinearity with sign in {+1, -1, 0}
    (0 disables the nonlinear term), modes 0..K, step dt. dt=None resolves
    here to 1 / lambda(K), so a run can be sized before anything of K + 1
    modes is built. The integrating factor rotates every linear phase
    exactly, so dt only has to resolve the beats of the nonlinear term; at
    simulate's defaults this step's time error, as its 2 dt shadow
    estimates it, is below SIMULATION_TIME_TOL."""

    p: int
    K: int
    dt: float = None
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", checked_p(self.p))
        if self.K < 1:
            raise ValueError(f"need K >= 1, got {self.K}")
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign}")
        if self.dt is None:
            with np.errstate(over="ignore"):
                lam = dispersion(float(min(self.K, 1e300)))
            if not math.isfinite(lam):      # above K of about 1e154
                raise ValueError(f"K={Decimal(self.K):.3g}: lambda(K) "
                                 "overflows, so the default step 1/lambda(K) "
                                 "is not a finite dt > 0")
            object.__setattr__(self, "dt", 1.0 / lam)
        if not 0 < self.dt < math.inf:
            raise ValueError(f"need a finite dt > 0, got {self.dt}")


@dataclass
class SimState:
    """Half spectra of (u, u_t) at time t; entry k is the coefficient of
    e^{ikx}, negative modes implied by conjugation. u and v have modes
    0..K on the last axis and may carry leading batch axes, one solution
    per row."""

    t: float
    u: np.ndarray
    v: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.t, self.u.copy(), self.v.copy())


def windowed_norm(state: SimState, modes, s: float):
    """H^s norm of +-modes (positive mode list, each counted twice for its
    conjugate), hs_norm_prescaled; one norm per row of a stacked state."""
    return hs_norm_prescaled(modes, state.u.take(modes, axis=-1), 2.0, s)


def full_norm(state: SimState, s: float):
    """H^s norm of the whole half spectrum (mode 0 once, k > 0 twice),
    hs_norm unscaled; one norm per row of a stacked state."""
    k = np.arange(state.u.shape[-1], dtype=float)
    return hs_norm(k, state.u, np.where(k == 0, 1.0, 2.0), s)


def linear_energy(state: SimState) -> np.ndarray:
    """Per-mode energy lambda^2 |u_k|^2 + |v_k|^2, conserved exactly by the
    linear flow; row by row for a stacked state."""
    k = np.arange(state.u.shape[-1], dtype=float)
    lam = dispersion(k)
    return lam ** 2 * np.abs(state.u) ** 2 + np.abs(state.v) ** 2


class Stepper:
    """Integrating-factor RK4 for the half-spectrum system. States of any
    leading batch shape are advanced row by row in one set of array calls.

    _step advances a stacked state W = (u, v) of shape (2, R, K+1) through
    a _Workspace built for that shape. Each numpy operation of the scheme
    is made once on stacked operands and writes into a workspace buffer,
    the four FFTs included (nonlinear calls pocketfft's gufuncs with out=);
    the one fresh array of a step is the new W, so a state shown to an
    observer stays as it was shown. The per-mode
    coefficients, dt factors and nonlinear's row sign k^2 / M are real but
    stored as complex128: numpy multiplies a real number into a complex
    one as (c + 0j) * z anyway, so the bits are the same, and storing them
    complex saves that cast in every operation. The parts of a lockstep
    run (_integrate_lockstep) share one stepper, each with its own dt.
    """

    def __init__(self, config: SimConfig):
        self.K = config.K
        self.p = config.p
        self.sign = config.sign
        k = np.arange(self.K + 1, dtype=float)
        self.lam = dispersion(k)
        self.k2 = k ** 2
        self.dt = float(config.dt)
        self.M = _grid_size(self.p, self.K)
        self._g_row = (self.sign * self.k2 / self.M).astype(complex)
        self._fft_buffers = {}      # nonlinear's scratch, per input shape

    def _coefficients(self, tau: float) -> np.ndarray:
        """_step's 13 coefficient rows for a step of size tau, from the
        free-flow rotation at tau (c1, s1, ls1) and tau/2 (c2, s2): times u,
        times v, times (g3, v + tau/2 g1), times g1 and times g2 + g3."""
        (c1, s1, ls1), (c2, s2, _) = [free_flow_rotation(self.lam, h)
                                      for h in (tau, tau / 2.0)]
        return np.array([c2, c1, -ls1, c2, s2, s1, c1, tau * s2, s2,
                         s1, c1, 2.0 * s2, 2.0 * c2], dtype=complex)

    def nonlinear(self, u_hat: np.ndarray, out=None) -> np.ndarray:
        """g(u) = sign * k^2 * (u^p)_k on the retained modes (last axis),
        row by row over any leading axes, each row bit-identical to its
        solo call; _step relies on that to evaluate two stages as one
        stack. Written into out when given; the padded grids are scratch
        buffers kept per input shape, so a stepper serves one thread at a
        time. The transforms are the gufuncs that np.fft.irfft and
        np.fft.rfft call, here on the last axis with scale 1.0, so no axis,
        norm or shape handling runs per call: irfft zero-pads modes
        K+1..M/2 and sums them unscaled (np.fft's norm="forward"), and
        rfft_n_even is the unnormalised forward transform, M being even
        (_fft_good_size). The row sign k^2 / M undoes its factor M. u^p is
        repeated products, a few ulps from pow; at p = 2 an exact square."""
        if out is None:
            out = np.empty(u_hat.shape, dtype=complex)
        if self.sign == 0:
            out.fill(0)
            return out
        bufs = self._fft_buffers.get(u_hat.shape)
        if bufs is None:
            grid = u_hat.shape[:-1] + (self.M,)
            spec = np.empty(grid[:-1] + (self.M // 2 + 1,), dtype=complex)
            phys = np.empty(grid)
            bufs = self._fft_buffers[u_hat.shape] = (
                phys, np.empty(grid) if self.p > 2 else phys, spec,
                spec[..., : self.K + 1])
        phys, power, spec, kept = bufs
        _irfft(u_hat, 1.0, out=phys)
        np.multiply(phys, phys, out=power)
        for _ in range(self.p - 2):
            np.multiply(power, phys, out=power)
        _rfft(power, 1.0, out=spec)
        return np.multiply(self._g_row, kept, out=out)

    def _step(self, W, ws: "_Workspace") -> np.ndarray:
        """One IF-RK4 step of the stacked state W, returned as a new
        array. The stage inputs are
            g1: u,                  g2: c2 u + s2 (v + dt/2 g1),
            g3: c2 u + s2 v,        g4: c1 u + s1 v + dt s2 g3,
        so g1 and g3 depend on the state alone and g2, g4 on (g1, g3):
        two rounds of one stacked nonlinear call each, bit-identical to
        four sequential calls. Every product and sum keeps its operands
        and their order; only the layout is stacked."""
        u, v = W[0], W[1]
        np.multiply(ws.times_u, u, out=ws.cu)     # c2 u, c1 u, -ls1 u, c2 u
        np.multiply(ws.times_v, v, out=ws.cv)     # s2 v, s1 v, c1 v
        np.add(ws.sums, ws.cv, out=ws.sums)       # u_half, u_full, v_full
        np.copyto(ws.u, u)
        self.nonlinear(ws.round_1, out=ws.g13)    # g1, g3
        np.multiply(ws.half_dt, ws.g1, out=ws.mid)
        np.add(v, ws.mid, out=ws.mid)             # v + dt/2 g1
        np.multiply(ws.times_mid, ws.g3_mid, out=ws.round_2)
        np.add(ws.bases, ws.round_2, out=ws.round_2)  # the g4, g2 inputs
        self.nonlinear(ws.round_2, out=ws.g42)    # g4, g2
        np.add(ws.g2, ws.g3, out=ws.g23)
        np.multiply(ws.times_g1, ws.g1, out=ws.update)   # s1 g1, c1 g1
        np.multiply(ws.times_g23, ws.g23, out=ws.update_g23)
        np.add(ws.update, ws.update_g23, out=ws.update)
        np.add(ws.update_v, ws.g4, out=ws.update_v)
        np.multiply(ws.sixth_dt, ws.update, out=ws.update)
        return np.add(ws.full, ws.update)

    def _step_once(self, W, tau: float) -> np.ndarray:
        """One step of size tau of a (2, *shape) state, with a workspace
        of its own."""
        rows = W.reshape(2, -1, self.K + 1)
        ws = _Workspace(self, [(tau, rows.shape[1])])
        return self._step(rows, ws).reshape(W.shape)

    def step(self, state: SimState) -> SimState:
        W = self._step_once(np.array((state.u, state.v), dtype=complex),
                            self.dt)
        return SimState(state.t + self.dt, W[0], W[1])

    def integrate(self, state: SimState, t_end: float, *,
                  observer=None) -> SimState:
        """Advance to t_end with fixed steps plus one remainder step.
        observer(state), when given, is called at the start and after every
        step. Non-finite spectra raise SimulationBlowup."""
        (final,), _ = _integrate_lockstep(self, [(state, self.dt, observer)],
                                          t_end)
        return final

    def integrate_with_shadow(self, state: SimState, t_end: float, *,
                              observer=None):
        """integrate, plus a shadow copy of state at 2 dt with no observer,
        as the two parts of one lockstep run: while the shadow has full
        steps left, its row shares each _step call, and the trajectory
        keeps the bits of integrating it alone. Returns the final state and
        the shadow's, or None for the shadow when it would take fewer than
        two full steps (has_shadow): for t_end - t < 2 dt both parts would
        take one identical remainder step, and their difference would read
        0 whatever the time error. A blow-up of the trajectory ends the run
        as in integrate; the shadow's does not, and its final state is then
        returned as it is, not finite."""
        if not has_shadow(self.dt, t_end - state.t):
            return self.integrate(state, t_end, observer=observer), None
        (final, shadow), _ = _integrate_lockstep(
            self, [(state, self.dt, observer), (state, 2.0 * self.dt, None)],
            t_end, lenient=(1,))
        return final, shadow


def has_shadow(dt: float, span: float) -> bool:
    """Whether a 2 dt shadow takes at least two full steps over span, so
    that Stepper.integrate_with_shadow runs it."""
    return span / (2.0 * dt) + 1e-12 >= 2.0


class _Workspace:
    """What the steps of a (2, R, K+1) stack reuse: _step's coefficient
    rows at (R, K+1) each, 0.5 dt and dt/6 (scalars, or per-row columns
    when blocks, (tau, row count) in row order, has more than one), and
    the stage buffers with every view _step takes of them."""

    def __init__(self, stepper: Stepper, blocks):
        width = stepper.K + 1
        coef = np.concatenate(
            [np.broadcast_to(stepper._coefficients(tau)[:, None],
                             (13, n, width)) for tau, n in blocks], axis=1)
        (self.times_u, self.times_v, self.times_mid, self.times_g1,
         self.times_g23) = np.split(coef, [4, 7, 9, 11])
        dt = (blocks[0][0] if len(blocks) == 1 else
              np.concatenate([np.full((n, 1), tau) for tau, n in blocks]))
        self.half_dt, self.sixth_dt = (np.asarray(a, dtype=complex)
                                       for a in (0.5 * dt, dt / 6.0))
        buf = np.empty((20, coef.shape[1], width), dtype=complex)
        (x, self.cv, g, self.round_2, self.g42, self.update,
         self.update_g23, (self.g23,)) = np.split(
            buf, [5, 8, 11, 13, 15, 17, 19])
        # x = [u, u_half, u_full, v_full, c2 u], g = [g1, g3, v + dt/2 g1]
        self.u, self.cu, self.sums, self.round_1 = x[0], x[1:], x[1:4], x[:2]
        self.bases, self.full = x[2::2], x[2:4]
        self.g13, self.g1, self.g3, self.mid = g[:2], g[0], g[1], g[2]
        self.g3_mid = g[1:]
        self.g4, self.g2 = self.g42
        self.update_v = self.update[1]


class _Part:
    """One part of a lockstep integration: its dt and observer, its count
    of full steps and its own clock, its current state as one array
    W = (u, v) and its last checked state. A part that is not strict does
    not raise on a non-finite state."""

    def __init__(self, state: SimState, dt: float, observer, t_end: float,
                 strict: bool = True):
        if t_end < state.t:
            raise ValueError(f"t_end={t_end} before state time {state.t}")
        self.dt = dt
        self.observer = observer
        self.strict = strict
        state = state.copy()
        if observer is not None:
            observer(state)
        self.n_full = int(math.floor((t_end - state.t) / self.dt + 1e-12))
        self.t, self.i = state.t, 0     # the time after i full steps
        self.W = np.array((state.u, state.v), dtype=complex)
        self.n_rows = math.prod(state.u.shape[:-1])
        self.last_good = state
        self.steps = self.n_full

    def time_after(self, i: int) -> float:
        """The time after full step i, summed step by step, t + dt + dt
        ..., as one integration's clock runs."""
        while self.i < i:
            self.t += self.dt
            self.i += 1
        return self.t

    def check(self, t: float, W):
        if self.strict and not np.isfinite(W).all():
            raise SimulationBlowup(f"non-finite spectrum at t={t:.6g}",
                                   self.last_good.t, self.last_good)

    def after_step(self, i: int, W):
        """Check the state after full step i every NAN_CHECK_EVERY steps,
        and show it to the observer."""
        t = self.time_after(i)
        if i % NAN_CHECK_EVERY == 0:
            self.check(t, W)
            self.last_good = SimState(t, W[0].copy(), W[1].copy())
        if self.observer is not None:
            self.observer(SimState(t, W[0], W[1]))

    def finish(self, stepper: Stepper, t_end: float) -> SimState:
        """The remainder step, if any, and the final check."""
        t, W = self.time_after(self.n_full), self.W
        rem = t_end - t
        if rem > 1e-12 * max(1.0, abs(t_end)):   # the clock's rounding
            t, W = t_end, stepper._step_once(W, rem)
            self.steps += 1
            if self.observer is not None:
                self.observer(SimState(t, W[0], W[1]))
        self.check(t, W)
        return SimState(t, W[0], W[1])


def _integrate_lockstep(stepper: Stepper, parts, t_end: float, *,
                        lenient=()):
    """Advance each (state, dt, observer) part to t_end with stepper's
    equation, as Stepper.integrate at that dt advances it alone, and
    return the final states and the steps each part took.

    Each part has its own full steps, time sum, remainder step,
    finiteness check every NAN_CHECK_EVERY full steps and last good
    state. The parts with full steps left form a group: their rows are
    stacked into one (2, R, K+1) state, a _Workspace is built as the group
    forms, and each step is one Stepper._step call. Rows are advanced
    independently, so every part gets the bits of integrating it alone.
    Overflow on the way to a blow-up is not warned about; the checks raise
    SimulationBlowup, except for the parts at the indices in lenient,
    whose non-finite rows go on alone. check_simulation_budget refuses an
    oversized run before any part is built."""
    if not math.isfinite(t_end):
        raise ValueError(f"need a finite t_end, got {t_end}")
    check_simulation_budget(stepper.p, stepper.K, t_end,
                            [(state.t, dt, math.prod(state.u.shape[:-1]))
                             for state, dt, _o in parts])
    parts = [_Part(state, dt, observer, t_end, strict=i not in lenient)
             for i, (state, dt, observer) in enumerate(parts)]
    width = stepper.K + 1
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            group = [q for q in parts if q.n_full > done]
            if not group:
                break
            stop = min(q.n_full for q in group)
            observing = any(q.observer is not None for q in group)
            W = np.concatenate([q.W.reshape(2, -1, width) for q in group],
                               axis=1)
            ws = _Workspace(stepper, [(q.dt, q.n_rows) for q in group])
            edges = list(itertools.accumulate(
                (q.n_rows for q in group), initial=0))
            rows = [(q, slice(a, b)) for q, a, b in zip(group, edges,
                                                        edges[1:])]
            for i in range(done + 1, stop + 1):
                W = stepper._step(W, ws)
                if observing or i % NAN_CHECK_EVERY == 0:
                    for q, r in rows:
                        q.after_step(i, W[:, r].reshape(q.W.shape))
            for q, r in rows:
                q.W = W[:, r].reshape(q.W.shape)
            done = stop
        finals = [q.finish(stepper, t_end) for q in parts]
    return finals, [q.steps for q in parts]


def witness_state(pair: WitnessPair, K: int) -> SimState:
    """Place a torus witness on the half spectrum. K must cover the data."""
    if pair.config.domain != Domain.TORUS:
        raise ValueError("only torus witnesses can be simulated")
    max_freq = pair.u0.support.max_frequency()
    if K < max_freq:
        raise ValueError(f"K={K} below the witness support {max_freq}")
    u = np.zeros(K + 1, dtype=complex)
    v = np.zeros(K + 1, dtype=complex)
    for half, wave in ((u, pair.u0), (v, pair.u1)):
        for freq, val in zip(wave.freqs, wave.values):
            if freq >= 0:
                half[int(round(freq))] = val
    return SimState(0.0, u, v)


# -- finite-difference derivative probe --------------------------------------

@dataclass
class ProbeResult:
    """Amplitude-differentiated window coefficient: an independent estimate
    of the derivative functional at the torus output mode."""

    p: int
    t: float
    mode: int
    value: complex
    estimates: list     # one stencil estimate per PROBE_EPS entry
    rel_spread: float
    converged: bool
    meta: dict = field(default_factory=dict)


def _stencil_weights(p: int):
    """Central finite-difference weights for the p-th derivative on integer
    offsets -h..h (in units of the step; divide by eps^p to apply).
    Solved from the Vandermonde moment system, exact on degree <= 2h."""
    h = (p + 1) // 2
    offsets = np.arange(-h, h + 1, dtype=float)
    n = offsets.size
    A = np.array([offsets ** i / math.factorial(i) for i in range(n)])
    rhs = np.zeros(n)
    rhs[p] = 1.0
    return offsets.astype(int), np.linalg.solve(A, rhs)


def fd_derivative_probe(pair: WitnessPair, p: int, t: float, *,
                        sign: int = 1) -> ProbeResult:
    """Differentiate the full nonlinear flow through the data amplitude.

    Solves the equation from the witness scaled by a ladder of amplitudes,
    applies a central p-th-derivative stencil in the amplitude at each eps
    of PROBE_EPS, and reads off the output-mode coefficient. Every
    amplitude is an integer multiple j of the finer eps, and the ladder's
    distinct non-zero multiples (overlaps such as eps and eps/2 shared)
    are stacked as the rows of one batched state and integrated together.
    The stencil error is O(eps^2) and is Richardson-extrapolated over the
    two eps.

    For odd p, (-u)^p = -u^p makes the flow map odd, S(-a phi) = -S(a phi),
    and the discrete flow is odd bit for bit: every stepper operation (the
    rotations, the FFTs, the products forming u^p, the scalings) commutes
    with negation under round-to-nearest. So only the positive amplitudes
    are integrated, and each negative amplitude's output coefficient is
    read as the negation of its partner's; only the signs of exact zeros
    can differ from a solve at -a. Even p has no such symmetry (-u solves
    the equation of the opposite sign) and integrates every amplitude.

    Step rule: dt = 2 / lambda(max support frequency), capped at t / 4.
    The integrating factor rotates every linear phase exactly, so dt only
    has to resolve the phases of the witness modes, not lambda(K). The cap
    gives the 2 dt ladder at least two full steps: for t < 2 dt both
    ladders would take one identical remainder step of size t, and the
    time-error estimate below would read 0 whatever the error. The ladder
    is solved at dt and at 2 dt, as two parts of one lockstep run on one
    Stepper (_integrate_lockstep), sized before a state is built: while
    the 2 dt ladder has full steps left, both ladders' rows go through one
    step call, each with its own dt, and each gets its own bits. IF-RK4
    is fourth order, so with v(h) the Richardson value in eps at step h,
    |v(dt) - v(2dt)| / 15 estimates the time error of v(dt), and the
    reported value is the Richardson value in time,
    v(dt) + (v(dt) - v(2dt)) / 15, whose error is smaller still.

    meta["dt_err_est"] is that time-error estimate relative to the value.
    The result is converged when it and the relative spread between the
    eps estimates (at dt) are both at most 5%. meta["n_solves"] counts the
    ladder's distinct non-zero amplitudes, whether integrated or read by
    symmetry; meta["n_steps"] counts the row steps actually integrated over
    both ladders, half as many for odd p as for a full ladder.

    The cutoff K = max(max support frequency, output mode) keeps the p-th
    amplitude derivative exact. That derivative of the output coefficient
    is the p-th Picard iterate, built only from the free waves on the
    support and the output-mode coefficient of their p-fold product, which
    the zero padding computes without aliasing. So the cutoff moves only
    the Taylor orders p+1 and up; the central stencil's error holds only
    even powers of eps, so order p+1 cancels, and order p+2 is the eps^2
    term that the Richardson step in eps removes (Boyd, Chebyshev and
    Fourier Spectral Methods, 2nd ed., 2001, ch. 11).
    """
    p = checked_p(p)
    if p != pair.config.p:
        raise ValueError(f"p={p} does not match witness p={pair.config.p}")
    if t <= 0:
        raise ValueError(f"need t > 0, got t={t}")
    mode = int(pair.output_window)
    max_freq = pair.u0.support.max_frequency()
    K = max(int(round(max_freq)), mode)
    dt = min(2.0 / dispersion(float(max_freq)), t / 4.0)
    offsets, weights = _stencil_weights(p)
    # the zero amplitude solves to zero and drops out of the stencil
    stencil = [(int(off), w) for off, w in zip(offsets, weights)
               if w != 0.0 and off != 0]
    # each eps is m times the finest, m = (2, 1), so offset off sits at the
    # multiple j = off * m, and j * PROBE_EPS[-1] is the double off * eps
    ms = [round(eps / PROBE_EPS[-1]) for eps in PROBE_EPS]
    js = list(dict.fromkeys(off * m for m in ms for off, _w in stencil))
    odd = p % 2 == 1
    solved = [j for j in js if j > 0 or not odd]
    dts = (dt, 2.0 * dt)
    check_simulation_budget(p, K, t, [(0.0, h, len(solved)) for h in dts])
    base = witness_state(pair, K)
    rows = PROBE_EPS[-1] * np.array(solved, dtype=float)[:, None]
    parts = [(SimState(0.0, rows * base.u, rows * base.v), h, None)
             for h in dts]
    finals, steps = _integrate_lockstep(
        Stepper(SimConfig(p=p, K=K, dt=dt, sign=sign)), parts, t)

    def ladder(final):
        """Stencil estimates per eps and their Richardson value, from one
        ladder's final state."""
        coeff = dict(zip(solved, final.u[:, mode].tolist()))
        if odd:
            coeff.update({-j: -c for j, c in coeff.items()})
        est = [sum((w * coeff[off * m] for off, w in stencil), 0j) / eps ** p
               for eps, m in zip(PROBE_EPS, ms)]
        return est, est[1] + (est[1] - est[0]) / (ms[0] ** 2 - 1.0)

    estimates, fine = ladder(finals[0])
    _, coarse = ladder(finals[1])
    value = fine + (fine - coarse) / 15.0
    scale = max(abs(value), 1e-300)
    rel_spread = abs(estimates[0] - estimates[1]) / scale
    dt_err_est = abs(fine - coarse) / 15.0 / scale
    return ProbeResult(p, t, mode, value, estimates, rel_spread,
                       rel_spread <= 0.05 and dt_err_est <= 0.05,
                       meta={"K": K, "dt": dt, "n_solves": len(js),
                             "dt_err_est": dt_err_est,
                             "n_steps": len(solved) * sum(steps)})


# -- norm inflation -----------------------------------------------------------

@dataclass
class InflationRow:
    N: int
    sup_window_norm: float
    t_peak: float
    initial_window_norm: float
    data_scale: float


@dataclass
class InflationResult:
    p: int
    s: float
    delta: float
    t_end: float
    rows: list

    def sup_norms(self):
        return [r.sup_window_norm for r in self.rows]


def _inflation_cutoff(p: int, N: int) -> int:
    """inflation_experiment's cutoff at N: p times the top frequency F of
    the torus witness's support (N + 1 for even p, 2N for odd p), the
    highest mode of the data's p-fold product. It reads the frequency set
    alone, so a run is sized before its witness is built."""
    cfg = WitnessConfig(Domain.TORUS, p, N, 0.0)
    return p * int(round(frequency_set(cfg).max_frequency()))


class _WindowRecord:
    """inflation_experiment's observer at one s: each state's t and window
    |u_m| in one preallocated array. peak() norms its rows in one call, as
    windowed_norm would, and gives the first largest's index; a full array
    keeps row 0 and that row and writes on, so it stays at 24 kB."""

    def __init__(self, s: float):
        self.s, self.n = s, 0
        self.rows = np.empty((INFLATION_RECORD_ROWS,
                              1 + len(INFLATION_WINDOW)))

    def __call__(self, st: SimState):
        if self.n == len(self.rows):
            self.rows[1], self.n = self.rows[self.peak()[1]], 2
        self.rows[self.n, 0] = st.t
        np.abs(st.u.take(INFLATION_WINDOW), out=self.rows[self.n, 1:])
        self.n += 1

    def peak(self):
        norms = hs_norm_prescaled(INFLATION_WINDOW, self.rows[:self.n, 1:],
                                  2.0, self.s)
        return norms, int(np.argmax(norms))


def inflation_experiment(s_list, N_list, *, p: int, delta: float,
                         t_end: float, sign: int) -> list:
    """Feed size-delta witness data to the full solver and track the H^s
    mass that the low window INFLATION_WINDOW accumulates, at each s of
    s_list: one InflationResult per s.

    The witness for each N is rescaled so the data norm is exactly delta.
    The cutoff is _inflation_cutoff's K = p F, F the witness's top support
    frequency: the data live on modes up to F, and the first nonlinear
    iterate, the data's p-fold product, reaches p F. Higher modes are fed
    only by later iterates, so the cutoff's error falls fast with delta
    (like delta^4 at p = 2): against twice the cutoff, criterion 8's sup
    norms (delta = 1e-2) move by at most 1.9e-14 relative, far below the
    step's error, while at data of size 1 the two errors are alike. The step
    is dt = INFLATION_DT_FACTOR / (2N + 2); the integrating factor rotates
    the fast linear phases exactly, so dt need not resolve lambda(K), but
    the step is not accurate at every N. At inflate's defaults (p = 2,
    s = -0.6, delta = 1e-2, t_end = 1) the window coefficient u_1 at t_end
    errs by 1.27e-6 against a dt/8 run at N = 128, where dt lambda(2F) is
    near 4 pi, and by 9.7e-9 at N = 64; at odd p (3 and 5, sign -1) the
    sup norms err by about 4e-2 at N = 64. At odd p and N = 128 the
    default step's sup window norm is about 114 times too large: at p = 3
    (s = -0.6, delta = 1e-2, sign +1) it reads 1.3598e-6 against 1.1968e-8
    at dt/16, and about 118 times at p = 5. Those rows show the step's
    error, not the growth the paper proves.
    The runs at one N share K, M and dt, so they are the parts of one
    lockstep run on one Stepper, each with its own observer, bits and last
    good state; each observer is a _WindowRecord. Every N is sized before
    any witness is built. N_list follows checked_n_list's rule.

    The runs of different N share nothing, so they are split by their
    estimated work (check_simulation_budget's) into bins over the usable
    CPUs, and every bin but the first runs in a forked child (see
    workers). Each run is the same code on the same inputs wherever it
    runs, so the rows are the same bits as in one process; a failing run
    raises what running the N in order would raise, the error of the first
    failing N. Small experiments, whose lightest bin would hold less than
    FORK_MIN_WORK, run in this process.
    """
    if not (0 < delta < math.inf and 0 < t_end < math.inf):
        raise ValueError(f"need a finite delta > 0 and a finite t_end > 0, "
                         f"got delta={delta}, t_end={t_end}")
    s_list = list(s_list)
    if not s_list:
        raise ValueError("need at least one s, got an empty list")
    N_list = checked_n_list(N_list)
    configs = [SimConfig(p=p, K=_inflation_cutoff(p, N), sign=sign,
                         dt=INFLATION_DT_FACTOR / (2 * N + 2))
               for N in N_list]
    works = [check_simulation_budget(cfg.p, cfg.K, t_end,
                                     [(0.0, cfg.dt, 1)] * len(s_list))
             for cfg in configs]

    def run(j):
        """The lockstep run at N_list[j]: one InflationRow per s."""
        N, cfg = N_list[j], configs[j]
        parts, runs = [], []
        for s in s_list:
            pair = build_witness(WitnessConfig(Domain.TORUS, p, N, s))
            scale = delta / data_norm(pair, s)
            state = witness_state(pair, cfg.K)
            state.u *= scale
            state.v *= scale
            record = _WindowRecord(s)
            parts.append((state, cfg.dt, record))
            runs.append((record, scale))
        _integrate_lockstep(Stepper(cfg), parts, t_end)
        rows = []
        for record, scale in runs:
            norms, i = record.peak()
            rows.append(InflationRow(N, norms[i].item(),
                                     record.rows[i, 0].item(),
                                     norms[0].item(), scale))
        return rows

    per_N = run_bins(run, work_bins(works, FORK_MIN_WORK))
    return [InflationResult(p, s, delta, t_end, [rows[j] for rows in per_N])
            for j, s in enumerate(s_list)]
