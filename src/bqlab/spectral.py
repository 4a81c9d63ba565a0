"""Spectral containers and the linear half of the Boussinesq flow.

Everything in the laboratory lives on the Fourier side of the fourth-order
Boussinesq operator: the dispersion relation lambda(xi) = sqrt(xi^2 + xi^4),
frequency supports (integer modes on the torus, finite unions of intervals
on the line), weighted spectral samples, Sobolev norms, and the linear
propagator written as the usual pair of cos / sin-over-lambda multipliers.

Conventions: torus coefficients are indexed by k in Z with counting measure;
the line transform uses the unit-constant convention, and all norms are
computed directly on the stored frequency grid, so no physical-space pass is
ever needed. Line data is sampled on composite-midpoint grids, one grid per
support interval.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

# below this, sin(t*lam)/lam falls back to its limit t
LAMBDA_ZERO_TOL = 1e-12

# default composite-midpoint density on line intervals, nodes per unit length
NODES_PER_UNIT = 64

# short intervals still deserve a grid; floor per component
MIN_NODES_PER_COMPONENT = 8


class Domain(str, Enum):
    LINE = "line"
    TORUS = "torus"


class SetSign(str, Enum):
    PLUS = "+"
    MINUS = "-"
    BOTH = "+-"


def dispersion(xi):
    """lambda(xi) = sqrt(xi^2 + xi^4) = |xi| sqrt(1 + xi^2).

    Even in xi, vanishes only at 0, and is squeezed between xi^2 and
    xi^2 + 1/2. Vectorized; scalars in, scalar out.
    """
    x = np.asarray(xi, dtype=float)
    out = np.abs(x) * np.sqrt(1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def sin_over_lambda(lam, t: float):
    """sin(t*lam)/lam with the removable singularity filled by t."""
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam < LAMBDA_ZERO_TOL, 1.0, lam)
    out = np.where(lam < LAMBDA_ZERO_TOL, t, np.sin(t * safe) / safe)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FrequencySet:
    """A finite union of positive frequency components plus a mirror tag.

    Line components are closed intervals (lo, hi) with 0 < lo <= hi; torus
    components are positive integers. ``sign`` selects the set itself
    (PLUS), its mirror (MINUS), or the symmetric union (BOTH). The mirror is
    always derived on demand, never stored.
    """

    domain: Domain
    components: tuple
    sign: SetSign = SetSign.PLUS

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("frequency set needs at least one component")
        if self.domain == Domain.TORUS:
            if any(int(c) != c or c <= 0 for c in comps):
                raise ValueError("torus components must be positive integers")
            if len(set(comps)) != len(comps):
                raise ValueError("duplicate torus components")
            if list(comps) != sorted(comps):
                raise ValueError("torus components must be sorted")
        else:
            for lo, hi in comps:
                if not (0.0 < lo <= hi):
                    raise ValueError(f"bad line component [{lo}, {hi}]")
            for (_, hi), (lo2, _) in zip(comps, comps[1:]):
                if hi >= lo2:
                    raise ValueError("line components must be disjoint and sorted")

    def with_sign(self, sign: SetSign) -> "FrequencySet":
        return FrequencySet(self.domain, self.components, sign)

    def signed_components(self):
        """Expand to concrete signed components, negatives first.

        Line: list of (lo, hi) intervals on the real axis. Torus: list of
        signed integers.
        """
        out = []
        if self.sign in (SetSign.MINUS, SetSign.BOTH):
            if self.domain == Domain.TORUS:
                out.extend(-c for c in reversed(self.components))
            else:
                out.extend((-hi, -lo) for (lo, hi) in reversed(self.components))
        if self.sign in (SetSign.PLUS, SetSign.BOTH):
            out.extend(self.components)
        return out

    def contains(self, xi: float) -> bool:
        if self.domain == Domain.TORUS:
            return any(xi == c for c in self.signed_components())
        return any(lo <= xi <= hi for lo, hi in self.signed_components())

    def max_frequency(self) -> float:
        if self.domain == Domain.TORUS:
            return float(max(abs(c) for c in self.signed_components()))
        return float(max(max(abs(lo), abs(hi))
                         for lo, hi in self.signed_components()))


@dataclass
class SpectralData:
    """Weighted spectral samples of one real-valued field.

    freqs holds the sample frequencies (integer modes on the torus,
    composite-midpoint nodes on the line), values the complex amplitudes,
    weights the quadrature weights (all ones on the torus, node widths on
    the line). N and sigma are carried along as the localization scale and
    amplitude exponent the data was built with.
    """

    domain: Domain
    freqs: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    support: FrequencySet
    N: int
    sigma: float

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.freqs.shape == self.values.shape == self.weights.shape):
            raise ValueError("freqs/values/weights shape mismatch")
        if self.domain == Domain.TORUS:
            if not np.all(self.freqs == np.round(self.freqs)):
                raise ValueError("torus data requires integer modes")

    @classmethod
    def from_modes(cls, modes: dict, support: FrequencySet, N: int,
                   sigma: float) -> "SpectralData":
        """Torus constructor from a mode -> amplitude mapping."""
        ks = np.array(sorted(modes), dtype=float)
        vals = np.array([modes[int(k)] for k in ks], dtype=complex)
        return cls(Domain.TORUS, ks, vals, np.ones_like(ks), support, N, sigma)

    @classmethod
    def sampled(cls, support: FrequencySet, value_fn, N: int, sigma: float,
                nodes_per_unit: int = NODES_PER_UNIT) -> "SpectralData":
        """Line constructor: midpoint grids per signed component.

        value_fn maps a node array to complex amplitudes.
        """
        if support.domain != Domain.LINE:
            raise ValueError("sampled() builds line data")
        freqs, weights = [], []
        for lo, hi in support.signed_components():
            width = hi - lo
            n = max(MIN_NODES_PER_COMPONENT, int(np.ceil(width * nodes_per_unit)))
            h = width / n
            freqs.append(lo + (np.arange(n) + 0.5) * h)
            weights.append(np.full(n, h))
        freqs = np.concatenate(freqs)
        weights = np.concatenate(weights)
        return cls(Domain.LINE, freqs, np.asarray(value_fn(freqs), dtype=complex),
                   weights, support, N, sigma)

    def scaled(self, factor: complex) -> "SpectralData":
        return SpectralData(self.domain, self.freqs.copy(),
                            self.values * factor, self.weights.copy(),
                            self.support, self.N, self.sigma)

    def hermitian_defect(self) -> float:
        """Max |v(-xi) - conj(v(xi))| over nodes whose mirror is on the grid."""
        idx = {f: i for i, f in enumerate(self.freqs)}
        worst = 0.0
        for i, f in enumerate(self.freqs):
            j = idx.get(-f)
            if j is not None:
                worst = max(worst, abs(self.values[j] - np.conj(self.values[i])))
        return worst

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        if self.domain == Domain.TORUS:
            supports = [{"modes": [int(c) for c in self.support.signed_components()]}]
        else:
            supports = [{"lo": lo, "hi": hi}
                        for lo, hi in self.support.signed_components()]
        return {
            "domain": self.domain.value,
            "supports": supports,
            "sigma": self.sigma,
            "N": self.N,
            "values": [[float(f), float(v.real), float(v.imag)]
                       for f, v in zip(self.freqs, self.values)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralData":
        domain = json_field(d, "domain", Domain)
        freqs, vals = json_field(d, "values", lambda rows: (
            np.array([row[0] for row in rows], dtype=float),
            np.array([complex(row[1], row[2]) for row in rows])))
        support = json_field(d, "supports",
                             lambda s: _support_from_json(domain, s))
        if domain == Domain.TORUS:
            weights = np.ones_like(freqs)
        else:
            weights = _midpoint_weights(freqs, support)
        return cls(domain, freqs, vals, weights, support,
                   json_field(d, "N", int), json_field(d, "sigma", float))

    def to_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def from_json(cls, path: str) -> "SpectralData":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def json_field(d, key: str, parse):
    """parse(d[key]); a missing or ill-typed entry raises a ValueError that
    names the key, prefixed by the outer keys of nested calls."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object holding {key!r}, got "
                         f"{type(d).__name__}")
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    try:
        return parse(d[key])
    except KeyError as exc:
        raise ValueError(f"{key}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _support_from_json(domain: Domain, supports: list) -> FrequencySet:
    if domain == Domain.TORUS:
        modes = sorted(supports[0]["modes"])
        pos = tuple(m for m in modes if m > 0)
        neg = tuple(sorted(-m for m in modes if m < 0))
    else:
        ivs = sorted((s["lo"], s["hi"]) for s in supports)
        pos = tuple(iv for iv in ivs if iv[0] > 0)
        neg = tuple(sorted((-hi, -lo) for lo, hi in ivs if hi < 0))
    if pos and neg == pos:
        return FrequencySet(domain, pos, SetSign.BOTH)
    if pos and not neg:
        return FrequencySet(domain, pos, SetSign.PLUS)
    if neg and not pos:
        return FrequencySet(domain, neg, SetSign.MINUS)
    raise ValueError(f"{domain.value} support is neither one-sided nor "
                     "symmetric")


def _midpoint_weights(freqs: np.ndarray, support: FrequencySet) -> np.ndarray:
    """Recover midpoint weights for nodes grouped by support component."""
    weights = np.empty_like(freqs)
    for lo, hi in support.signed_components():
        mask = (freqs >= lo) & (freqs <= hi)
        n = int(mask.sum())
        if n == 0:
            raise ValueError(f"component [{lo}, {hi}] has no nodes")
        weights[mask] = (hi - lo) / n
    return weights


# -- norms and the propagator ---------------------------------------------

def sobolev_norm(data: SpectralData, s: float) -> float:
    """H^s norm of the stored samples: sqrt(sum w (1+xi^2)^s |v|^2)."""
    if not np.all(np.isfinite(data.values)):
        raise ValueError("non-finite amplitudes")
    x = data.freqs
    mass = data.weights * (1.0 + x * x) ** s * np.abs(data.values) ** 2
    return float(np.sqrt(mass.sum()))


def _require_same_grid(a: SpectralData, b: SpectralData):
    if a.domain != b.domain or a.freqs.shape != b.freqs.shape \
            or not np.array_equal(a.freqs, b.freqs):
        raise ValueError("operands live on different grids")


def free_flow_rotation(lam, t: float):
    """cos(t lam), sin(t lam)/lam and lam sin(t lam): the entries of the
    free flow's rotation (u, v) -> (c u + s v, -ls u + c v) over time t,
    the lam -> 0 limit handled by sin_over_lambda."""
    return np.cos(t * lam), sin_over_lambda(lam, t), lam * np.sin(t * lam)


def propagate_linear_pair(u0: SpectralData, u1: SpectralData, t: float):
    """(position, velocity) of the free evolution at time t. Each node's
    energy lam^2 |u_hat|^2 + |ut_hat|^2 is conserved exactly."""
    _require_same_grid(u0, u1)
    c, s, ls = free_flow_rotation(dispersion(u0.freqs), t)
    pos = c * u0.values + s * u1.values
    vel = -ls * u0.values + c * u1.values
    mk = lambda v: SpectralData(u0.domain, u0.freqs.copy(), v,
                                u0.weights.copy(), u0.support, u0.N, u0.sigma)
    return mk(pos), mk(vel)
