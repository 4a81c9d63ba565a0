"""Counterexample initial data and the output windows they excite.

A witness is a pair (u0, u1) of frequency-localized fields: u0 puts a flat
bump of height N^-sigma on a set A of frequencies near N and on its mirror,
and u1 carries matching velocity -i N^-sigma lambda on A minus mirror. With
that velocity the free evolution splits exactly into two one-sided waves
N^-sigma e^{-+ i t lambda} supported on +-A, which is what makes the p-fold
products analyzable: every output frequency is a signed sum of p elements
of A, each contributing a pure phase.

Four families, chosen so that signed sums reaching the output window have a
controlled phase mismatch:

  line, even p:  A = [N, N+1],                      window [1/4, 1/2]
  line, odd p:   A = two short intervals near N and 2N (widths ~ 1/p^2),
                 window I_p depending on p mod 3
  torus, even p: A = {N, N+1},                      output mode p/2
  torus, odd p:  A = {N, N+1, 2N},                  output mode
                                                    (p+1)/2 + floor((p-3)/6)
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (Domain, FrequencySet, SpectralData, checked_p,
                       dispersion, json_field, json_int, sobolev_norm)


@dataclass(frozen=True)
class WitnessConfig:
    """Parameters of one witness: domain, power p, scale N, indices (s, sigma).

    sigma defaults to s + 1 (any gap > 0 works; a unit gap keeps the N-sweep
    well conditioned). A non-finite s or sigma is refused, and so is
    sigma <= s: the data norms would not decay.
    """

    domain: Domain
    p: int
    N: int
    s: float
    sigma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", checked_p(self.p))
        try:
            N = json_int(self.N)
        except ValueError:    # fractional, nan or inf
            N = 0
        if N < 1:
            raise ValueError("N must be an integer >= 1")
        object.__setattr__(self, "N", N)
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.s + 1.0)
        if not (math.isfinite(self.s) and math.isfinite(self.sigma)):
            raise ValueError(f"need a finite s and sigma, got s={self.s}, "
                             f"sigma={self.sigma}")
        if self.sigma <= self.s:
            raise ValueError(f"sigma={self.sigma} must exceed s={self.s}")


def checked_n_list(N_list, least: int = 1) -> list:
    """N_list sorted, as the N sweeps of growth_table, inflation_experiment
    and verify_resonance_bounds take it. An empty list, a non-integer, an
    N < 1, a repeated N and fewer than `least` values are refused."""
    Ns = sorted(json_int(N) for N in N_list)
    if not Ns:
        raise ValueError("need at least one N, got an empty list")
    bad = [N for N in Ns if N < 1]
    if bad:
        raise ValueError(f"need every N >= 1, got {bad}")
    repeats = sorted({a for a, b in zip(Ns, Ns[1:]) if a == b})
    if repeats:
        raise ValueError(f"N list repeats {repeats}")
    if len(Ns) < least:
        raise ValueError(f"need at least {least} N values, got {Ns}")
    return Ns


@dataclass
class WitnessPair:
    config: WitnessConfig
    u0: SpectralData
    u1: SpectralData

    @property
    def output_window(self):
        return output_window(self.config)

    def to_dict(self) -> dict:
        window = self.output_window
        return {
            "p": self.config.p,
            "s": self.config.s,
            "output_window": (list(window) if isinstance(window, tuple)
                              else window),
            "u0": self.u0.to_dict(),
            "u1": self.u1.to_dict(),
        }

    @classmethod
    def from_json(cls, path: str) -> "WitnessPair":
        """Read a witness file; a malformed file raises ValueError naming
        the file and the offending key, and so does a u1 whose domain,
        support, N or sigma differs from u0's, or an output_window other
        than the one p and N define."""
        try:
            with open(path) as fh:
                d = json.load(fh)
            u0 = json_field(d, "u0", SpectralData.from_dict)
            u1 = json_field(d, "u1", SpectralData.from_dict)
            for name in ("domain", "support", "N", "sigma"):
                if getattr(u1, name) != getattr(u0, name):
                    raise ValueError(f"u1: {name} {getattr(u1, name)!r} "
                                     f"differs from u0's "
                                     f"{getattr(u0, name)!r}")
            cfg = WitnessConfig(u0.domain, json_field(d, "p", json_int),
                                u0.N, json_field(d, "s", float), u0.sigma)
            win = json_field(d, "output_window", lambda w: (
                tuple(w) if isinstance(w, list) else json_int(w)))
            own = output_window(cfg)
            if win != own:
                raise ValueError(f"output_window {win} is not {own}, the "
                                 f"window of p={cfg.p} at N={cfg.N}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls(cfg, u0, u1)


def frequency_set(cfg: WitnessConfig) -> FrequencySet:
    """The witness support +-A, stored as its positive half A."""
    p, N = cfg.p, cfg.N
    if cfg.domain == Domain.TORUS:
        if p % 2 and N == 1:
            raise ValueError("the odd-p torus witness needs N >= 2: at N=1 "
                             "its modes N + 1 and 2N coincide")
        comps = (N, N + 1) if p % 2 == 0 else (N, N + 1, 2 * N)
        return FrequencySet(Domain.TORUS, comps)
    if p % 2 == 0:
        return FrequencySet(Domain.LINE, ((float(N), float(N + 1)),))
    # odd p: two short intervals; widths shrink like 1/p^2 so that p-fold
    # signed sums can only reach the window through the intended triplets
    q = 1.0 / (2.0 * p * p)
    near = (N + 3 * (p - 1) * q, N + 3 * (p + 2) * q)
    far = (2.0 * N, 2.0 * N + 6 * q)
    return FrequencySet(Domain.LINE, (near, far))


def output_window(cfg: WitnessConfig):
    """Where the p-th derivative mass is measured: interval (line), mode (torus)."""
    p = cfg.p
    if cfg.domain == Domain.TORUS:
        return p // 2 if p % 2 == 0 else (p + 1) // 2 + (p - 3) // 6
    if p % 2 == 0:
        return (0.25, 0.5)
    r = p % 3
    if r == 0:
        return (1.0 - 2.0 / p, 1.0 + 2.0 / p)
    if r == 1:
        return (1.0 - 3.0 / p - 4.0 / p ** 2, 1.0 - 2.0 / p - 8.0 / p ** 2)
    return (1.0 - 4.0 / p + 4.0 / p ** 2, 1.0 - 4.0 / p ** 2)


def build_witness(cfg: WitnessConfig) -> WitnessPair:
    """Construct the pair (u0, u1) on the symmetric support.

    u0_hat = N^-sigma on A and on -A; u1_hat = -i N^-sigma lambda on A and
    +i N^-sigma lambda on -A. Both correspond to real physical fields (u0
    even, u1 odd). An amplitude N^-sigma that overflows, u1 samples that
    overflow, or a data norm at s that is not finite and positive, is
    refused.
    """
    try:
        amp = float(cfg.N) ** (-cfg.sigma)
    except OverflowError:
        raise ValueError(f"amplitude N^-sigma at N={cfg.N}, "
                         f"sigma={cfg.sigma:g} overflows") from None
    support = frequency_set(cfg)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        u0 = SpectralData.sampled(
            support, lambda x: np.full(x.shape, amp, dtype=complex),
            cfg.N, cfg.sigma)
        u1 = SpectralData.sampled(
            support, lambda x: -1j * amp * dispersion(x) * np.sign(x),
            cfg.N, cfg.sigma)
        if not np.isfinite(u1.values).all():
            raise ValueError(f"u1 samples N^-sigma lambda at N={cfg.N}, "
                             f"sigma={cfg.sigma:g} overflow")
        pair = WitnessPair(cfg, u0, u1)
        norm = data_norm(pair, cfg.s)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"data norm {norm} at N={cfg.N} is not finite and "
                         f"positive")
    return pair


def data_norm(pair: WitnessPair, s: float) -> float:
    """The size ||u0||_{H^s} + ||u1||_{H^{s-2}} the growth ratios divide by."""
    return sobolev_norm(pair.u0, s) + sobolev_norm(pair.u1, s - 2.0)


def attainable_triplet_range(p: int, N: int) -> tuple:
    """Exact range of a + b - c over a, b in the near-N component and c in
    the near-2N component of the odd-p line set.

    Computed by interval arithmetic from the actual components; equals
    [3(p-2)/p^2, 3(p+2)/p^2] identically in N.
    """
    cfg = WitnessConfig(Domain.LINE, p, N, s=0.0)
    (lo1, hi1), (lo2, hi2) = frequency_set(cfg).components
    return (2 * lo1 - hi2, 2 * hi1 - lo2)


def triplet_count(p: int) -> int:
    """How many (a + b - c) triplets the odd-p construction stacks."""
    if p % 2 == 0:
        raise ValueError("triplets arise only for odd p")
    return 2 * ((p - 3) // 6) + 1
