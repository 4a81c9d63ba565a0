"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of one core drifts by 20-40% within seconds
to minutes, with whatever else runs on its neighbours, and a run-to-run
spread that large hides any regression the bounds are meant to catch. So
the benchmark times a short fixed calibration slice, made of the same kind
of work as the laboratory (padded FFT products at the simulator's sizes,
small elementwise updates, a dict-heavy Python loop), and rescales each
timed interval to the reference speed at which one slice takes
REF_SLICE_S:

    t_ref = t * REF_SLICE_S / mean(slices taken during or around t)

Slices run outside the timed intervals (their time is subtracted) and call
nothing in bqlab, so a change to the program moves t and not the slices.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# one slice on the 2-core Xeon sandbox these workloads were sized on
REF_SLICE_S = 0.02
_ITERATIONS = 40
_FFT_SIZES = (540, 810, 1600)
_RNG = np.random.default_rng(0)
_MODES = _RNG.standard_normal(201) + 1j * _RNG.standard_normal(201)
_K2 = np.arange(201.0) ** 2
# wall time between two slices of a Sampler
INTERVAL_S = 0.3


def slice_s() -> float:
    """Run one calibration slice and return its duration: a few padded
    cubic products through FFTs of the simulator's sizes, elementwise
    updates, and a dict-heavy Python loop."""
    acc = 0.0
    t0 = perf_counter()
    for _ in range(_ITERATIONS):
        for m in _FFT_SIZES:
            spec = np.zeros(m // 2 + 1, dtype=complex)
            spec[:_MODES.size] = _MODES
            phys = np.fft.irfft(spec * m, n=m)
            g = _K2 * (np.fft.rfft(phys ** 3) / m)[:_MODES.size]
            acc += float(np.abs(np.cos(0.1 * _K2) * _MODES + 0.5 * g).sum())
        table = {}
        for k in range(60):
            table[k] = 0.5 * k + acc
        acc += 1e-12 * sum(table.values())
    return perf_counter() - t0


def rescale(t, slices):
    """Interval t at the reference speed, from the slices that sampled it."""
    return t * REF_SLICE_S * len(slices) / sum(slices)


class Sampler:
    """Takes a slice every INTERVAL_S of wall time while active.

    The slices run in a SIGALRM handler, between two bytecodes of whatever
    the program is doing, so they sample the machine's speed evenly over
    long calls that the benchmark cannot split. `spent` is their total
    time, to be subtracted from the interval they interrupted.
    """

    def __init__(self):
        self.slices = []
        self._busy = False

    @property
    def spent(self):
        return sum(self.slices)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.slices.append(slice_s())
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
