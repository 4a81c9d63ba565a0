"""Spectral containers and the linear half of the Boussinesq flow.

Everything in the laboratory lives on the Fourier side of the fourth-order
Boussinesq operator: the dispersion relation lambda(xi) = sqrt(xi^2 + xi^4),
frequency supports, weighted spectral samples, the H^s norm, and the linear
propagator written as the usual pair of cos / sin-over-lambda multipliers.

A support is always a mirror-symmetric set +-A, stored as the components of
A (integer modes on the torus, finite unions of intervals on the line). The
signs of an output frequency xi = eps_1 a_1 + ... + eps_p a_p belong to its
representation, not to the set.

Conventions: torus coefficients are indexed by k in Z with counting measure;
the line transform uses the unit-constant convention, and all norms are
computed directly on the stored frequency grid, so no physical-space pass is
ever needed. Torus data is sampled at every signed mode; line data on
composite-midpoint grids, one grid per signed component. Every sample lies
on its support.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# below this, sin(t*lam)/lam falls back to its limit t
LAMBDA_ZERO_TOL = 1e-12

# composite-midpoint density on line intervals, nodes per unit length
NODES_PER_UNIT = 64

# short intervals still deserve a grid; floor per component
MIN_NODES_PER_COMPONENT = 8

# loaded values whose Hermitian defect exceeds this fraction of their
# largest |value| are refused: they are not those of a real field
HERMITIAN_TOL = 1e-12


class Domain(str, Enum):
    LINE = "line"
    TORUS = "torus"


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
    """The mirror-symmetric set +-A, stored as the components of A.

    Line components are closed intervals (lo, hi) with 0 < lo <= hi; torus
    components are positive integers. The mirror -A is derived on demand,
    never stored.
    """

    domain: Domain
    components: tuple

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

    def signed_components(self):
        """The components of -A, then those of A, in increasing order.

        Line: list of (lo, hi) intervals on the real axis. Torus: list of
        signed integers.
        """
        if self.domain == Domain.TORUS:
            mirror = [-c for c in reversed(self.components)]
        else:
            mirror = [(-hi, -lo) for (lo, hi) in reversed(self.components)]
        return mirror + list(self.components)

    def contains(self, xi: float) -> bool:
        if self.domain == Domain.TORUS:
            return abs(xi) in self.components
        return any(lo <= abs(xi) <= hi for lo, hi in self.components)

    def max_frequency(self) -> float:
        last = self.components[-1]
        return float(last if self.domain == Domain.TORUS else last[1])


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
    def sampled(cls, support: FrequencySet, value_fn, N: int,
                sigma: float) -> "SpectralData":
        """value_fn (a map from a frequency array to complex amplitudes)
        sampled on the support: at every signed mode with unit weights on
        the torus, on a midpoint grid per signed component on the line.
        """
        if support.domain == Domain.TORUS:
            freqs = np.array(support.signed_components(), dtype=float)
            weights = np.ones_like(freqs)
        else:
            freqs, weights = [], []
            for lo, hi in support.signed_components():
                width = hi - lo
                n = max(MIN_NODES_PER_COMPONENT,
                        int(np.ceil(width * NODES_PER_UNIT)))
                h = width / n
                freqs.append(lo + (np.arange(n) + 0.5) * h)
                weights.append(np.full(n, h))
            freqs = np.concatenate(freqs)
            weights = np.concatenate(weights)
        return cls(support.domain, freqs,
                   np.asarray(value_fn(freqs), dtype=complex), weights,
                   support, N, sigma)

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
        off = [f for f in freqs if not support.contains(f)]
        if off:
            raise ValueError(f"values: frequency {off[0]:g} lies on no "
                             "support component")
        bad = freqs[~np.isfinite(vals)]
        if bad.size:
            raise ValueError(f"values: non-finite amplitude at frequency "
                             f"{bad[0]:g}")
        uniq, n_rows = np.unique(freqs, return_counts=True)
        if (n_rows > 1).any():
            raise ValueError(f"values: frequency {uniq[n_rows > 1][0]:g} is "
                             "listed more than once")
        if domain == Domain.TORUS:
            weights = np.ones_like(freqs)
        else:
            weights = _midpoint_weights(freqs, support)
        data = cls(domain, freqs, vals, weights, support,
                   json_field(d, "N", json_int), json_field(d, "sigma", float))
        defect = data.hermitian_defect()
        if defect > HERMITIAN_TOL * np.abs(vals).max(initial=0.0):
            raise ValueError(f"values: not a real field, |v(-xi) - conj "
                             f"v(xi)| reaches {defect:.3g}")
        return data


def json_int(x) -> int:
    """x as an int; a fractional part is refused, not truncated, and so
    are an infinity and a nan."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{x!r} is not an integer")
    n = int(x)
    if n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def checked_p(p) -> int:
    """The power p as an int >= 2; an integral float such as 3.0 is cast."""
    try:
        if json_int(p) >= 2:
            return int(p)
    except ValueError:    # fractional, nan or inf
        pass
    raise ValueError("p must be an integer >= 2")


def write_json(path: str, payload):
    """The one JSON writer: indent 1, as docs/schemas.md specifies."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def write_csv(path: str, header, rows):
    """The one CSV writer: a header row, then %.12g numbers, comma-separated
    as docs/schemas.md specifies."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


def write_output(path: str, payload):
    """payload to path: a writer such as GrowthTable.to_csv is called with
    it (CSV), anything else is JSON."""
    if callable(payload):
        payload(path)
    else:
        write_json(path, payload)


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
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _support_from_json(domain: Domain, supports: list) -> FrequencySet:
    """+-A from its signed components; refuses a support that is not its
    own mirror."""
    if domain == Domain.TORUS:
        signed = sorted(supports[0]["modes"])
        half = tuple(m for m in signed if m > 0)
    else:
        signed = sorted((s["lo"], s["hi"]) for s in supports)
        half = tuple(iv for iv in signed if iv[0] > 0)
    if not half or FrequencySet(domain, half).signed_components() != signed:
        raise ValueError(f"{domain.value} support is not mirror-symmetric")
    return FrequencySet(domain, half)


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

def hs_norm(freqs, values, weights, s: float):
    """The H^s norm, sqrt(sum w (1+xi^2)^s |v|^2) over the last axis: a
    float for one row, a norm per row of a stack, each with its row's bits.
    Unscaled, so |v|^2 overflows above about 1e154."""
    mass = weights * (1.0 + np.square(freqs, dtype=float)) ** s
    out = np.sqrt((mass * np.square(np.abs(values))).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def hs_norm_prescaled(freqs, values, weights, s: float):
    """hs_norm of each row's |v| / 2^e, times 2^e, e the binary exponent of
    its largest |v|, so no |v|^2 overflows; exact in the normal range."""
    a = np.abs(values)
    e = np.frexp(a.max(axis=-1, initial=0.0))[1]
    out = np.ldexp(hs_norm(freqs, np.ldexp(a, -e[..., None]), weights, s), e)
    return float(out) if out.ndim == 0 else out


def sobolev_norm(data: SpectralData, s: float) -> float:
    """H^s norm of the stored samples, hs_norm_prescaled of the data."""
    if not np.all(np.isfinite(data.values)):
        raise ValueError("non-finite amplitudes")
    return hs_norm_prescaled(data.freqs, data.values, data.weights, s)


def free_flow_rotation(lam, t: float):
    """cos(t lam), sin(t lam)/lam and lam sin(t lam): the entries of the
    free flow's rotation (u, v) -> (c u + s v, -ls u + c v) over time t,
    the lam -> 0 limit handled by sin_over_lambda."""
    return np.cos(t * lam), sin_over_lambda(lam, t), lam * np.sin(t * lam)

