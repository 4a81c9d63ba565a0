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
from dataclasses import dataclass

import numpy as np

from .spectral import (Domain, FrequencySet, SetSign, SpectralData,
                       NODES_PER_UNIT, dispersion, json_field, sobolev_norm)


@dataclass(frozen=True)
class WitnessConfig:
    """Parameters of one witness: domain, power p, scale N, indices (s, sigma).

    sigma defaults to s + 1 (any gap > 0 works; a unit gap keeps the N-sweep
    well conditioned). sigma <= s is refused: the data norms would not decay.
    """

    domain: Domain
    p: int
    N: int
    s: float
    sigma: float | None = None

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 2:
            raise ValueError("p must be an integer >= 2")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError("N must be an integer >= 1")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "N", int(self.N))
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.s + 1.0)
        if self.sigma <= self.s:
            raise ValueError(f"sigma={self.sigma} must exceed s={self.s}")


@dataclass
class WitnessPair:
    config: WitnessConfig
    u0: SpectralData
    u1: SpectralData
    output_window: tuple | int

    def to_dict(self) -> dict:
        return {
            "p": self.config.p,
            "s": self.config.s,
            "output_window": (list(self.output_window)
                              if isinstance(self.output_window, tuple)
                              else self.output_window),
            "u0": self.u0.to_dict(),
            "u1": self.u1.to_dict(),
        }

    def to_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def from_json(cls, path: str) -> "WitnessPair":
        """Read a witness file; a malformed file raises ValueError naming
        the file and the offending key."""
        try:
            with open(path) as fh:
                d = json.load(fh)
            u0 = json_field(d, "u0", SpectralData.from_dict)
            u1 = json_field(d, "u1", SpectralData.from_dict)
            cfg = WitnessConfig(u0.domain, json_field(d, "p", int), u0.N,
                                json_field(d, "s", float), u0.sigma)
            win = json_field(d, "output_window", lambda w: (
                tuple(w) if isinstance(w, list) else int(w)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls(cfg, u0, u1, win)


def frequency_set(cfg: WitnessConfig) -> FrequencySet:
    """The positive half A of the witness support (mirror derived)."""
    p, N = cfg.p, cfg.N
    if cfg.domain == Domain.TORUS:
        comps = (N, N + 1) if p % 2 == 0 else (N, N + 1, 2 * N)
        return FrequencySet(Domain.TORUS, comps, SetSign.PLUS)
    if p % 2 == 0:
        return FrequencySet(Domain.LINE, ((float(N), float(N + 1)),),
                            SetSign.PLUS)
    # odd p: two short intervals; widths shrink like 1/p^2 so that p-fold
    # signed sums can only reach the window through the intended triplets
    q = 1.0 / (2.0 * p * p)
    near = (N + 3 * (p - 1) * q, N + 3 * (p + 2) * q)
    far = (2.0 * N, 2.0 * N + 6 * q)
    return FrequencySet(Domain.LINE, (near, far), SetSign.PLUS)


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


def build_witness(cfg: WitnessConfig,
                  nodes_per_unit: int = NODES_PER_UNIT) -> WitnessPair:
    """Construct the pair (u0, u1) on the symmetric support.

    u0_hat = N^-sigma on A and on -A; u1_hat = -i N^-sigma lambda on A and
    +i N^-sigma lambda on -A. Both correspond to real physical fields (u0
    even, u1 odd).
    """
    amp = float(cfg.N) ** (-cfg.sigma)
    support = frequency_set(cfg).with_sign(SetSign.BOTH)
    if cfg.domain == Domain.TORUS:
        modes0, modes1 = {}, {}
        for k in support.signed_components():
            modes0[k] = amp
            modes1[k] = -1j * amp * dispersion(k) * np.sign(k)
        u0 = SpectralData.from_modes(modes0, support, cfg.N, cfg.sigma)
        u1 = SpectralData.from_modes(modes1, support, cfg.N, cfg.sigma)
    else:
        u0 = SpectralData.sampled(support, lambda x: np.full(x.shape, amp,
                                                             dtype=complex),
                                  cfg.N, cfg.sigma, nodes_per_unit)
        u1 = SpectralData.sampled(
            support,
            lambda x: -1j * amp * dispersion(x) * np.sign(x),
            cfg.N, cfg.sigma, nodes_per_unit)
    return WitnessPair(cfg, u0, u1, output_window(cfg))


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
