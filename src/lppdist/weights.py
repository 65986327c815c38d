"""Scalar calculus for geometric weight models.

The model parameter is an exact rational q in (0, 1).  The one-site weight is
the geometric law P[w = k] = (1-q) q^k on k >= 0, and its m-fold convolution
is the negative binomial

    w_m(x) = (1-q)^m binom(x+m-1, x) q^x        for x >= 0, else 0.

On top of these the module provides the forward difference calculus

    (Delta f)(x)      = f(x+1) - f(x)
    (Delta^-1 f)(x)   = sum_{y <= x-1} f(y)     (f vanishing below a support bound)

with integer powers of either sign, the discrete kernels h^{*k} that represent
repeated summation as a convolution, and a contour-integral evaluation of
Delta^k w_m built on trapezoidal quadrature over circles.  Exact operations
return `fractions.Fraction`; the contour route returns floats and is the
independent cross-check used by the test suite.

It is also the one module the four routes share: besides the calculus it
holds the error types, the MEIXNER_MAX_STATES state cap (`check_state_cap`)
that bounds every enumeration and Monte Carlo grid, and `OrderedVector`, the
weakly increasing state of the vector chain.  No route imports another.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GeometricParameter",
    "OrderedVector",
    "ContourConfig",
    "QuadratureError",
    "PrecisionLossError",
    "StateSpaceError",
    "MAX_STATES_ENV",
    "DEFAULT_MAX_STATES",
    "check_state_cap",
    "geometric_pmf",
    "neg_binomial",
    "delta_pow",
    "delta_neg_binomial",
    "heaviside_conv_pow",
    "delta_w_contour",
    "circle_nodes",
    "adaptive_batch",
]


class QuadratureError(RuntimeError):
    """Contour quadrature failed to converge within the node cap."""


class PrecisionLossError(RuntimeError):
    """Working precision cannot support the conditioning of a matrix."""


MAX_STATES_ENV = "MEIXNER_MAX_STATES"
DEFAULT_MAX_STATES = 5_000_000


class StateSpaceError(RuntimeError):
    """Requested exact enumeration exceeds the configured state cap."""


def _state_cap() -> int:
    raw = os.environ.get(MAX_STATES_ENV)
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_STATES_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{MAX_STATES_ENV} must be positive, got {cap}")
    return cap


def check_state_cap(count: int, what: str, cap: int | None = None) -> None:
    """Raise StateSpaceError when `count` exceeds the state cap.

    The cap is read from the MEIXNER_MAX_STATES environment variable (default
    5e6) unless the caller passes the value it already read.  `count` may be
    a running count, so the message states it as a lower bound.
    """
    if cap is None:
        cap = _state_cap()
    if count > cap:
        raise StateSpaceError(
            f"{what} number at least {count}, above the {MAX_STATES_ENV} cap {cap}"
        )


@dataclass(frozen=True)
class GeometricParameter:
    """Exact success parameter q of the geometric law, strictly inside (0, 1).

    Floats are rejected on purpose: every exact code path in the package
    depends on q being a true rational, and a float would silently promote
    Fraction arithmetic to binary approximations of itself.
    """

    value: Fraction

    def __post_init__(self) -> None:
        v = self.value
        if isinstance(v, float):
            raise TypeError(
                "q must be exact; pass a Fraction or a string like '1/2', not a float"
            )
        if not isinstance(v, Fraction):
            v = Fraction(v)
            object.__setattr__(self, "value", v)
        if not (0 < v < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {v}")

    @classmethod
    def coerce(cls, q: "GeometricParameter | Fraction | str | int") -> "GeometricParameter":
        if isinstance(q, cls):
            return q
        if isinstance(q, float):
            raise TypeError(
                "q must be exact; pass a Fraction or a string like '1/2', not a float"
            )
        return cls(Fraction(q))

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class OrderedVector:
    """A point of the ordered cone: a weakly increasing tuple of integers."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        ent = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", ent)
        if len(ent) == 0:
            raise ValueError("ordered vector must have at least one entry")
        if any(a > b for a, b in zip(ent, ent[1:])):
            raise ValueError(f"entries must be weakly increasing, got {ent}")

    @classmethod
    def coerce(cls, x: "OrderedVector | Sequence[int]") -> "OrderedVector":
        if isinstance(x, cls):
            return x
        return cls(tuple(x))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


def _q(q) -> Fraction:
    return GeometricParameter.coerce(q).value


@dataclass(frozen=True)
class ContourConfig:
    """Radii and node count for the circle quadratures.

    r2 is the inner radius (z contour), r1 the outer (w contour); admissible
    kernels need 1 < r2 < r1 < 1/q, where the last bound depends on q and is
    checked by `validate_for`.  The starting node count is at most
    MAX_NODES / 2: the doubling loop needs a second refinement within
    MAX_NODES, so a larger start could never converge.
    """

    r2: float
    r1: float
    nodes: int = 256

    def __post_init__(self) -> None:
        if not (1.0 < self.r2 < self.r1):
            raise ValueError(f"radii must satisfy 1 < r2 < r1, got r2={self.r2}, r1={self.r1}")
        if not 16 <= self.nodes <= MAX_NODES // 2 or self.nodes % 2:
            raise ValueError(
                f"node count must be even and in [16, {MAX_NODES // 2}], got {self.nodes}"
            )

    def validate_for(self, q) -> None:
        bound = 1.0 / float(_q(q))
        if not self.r1 < bound:
            raise ValueError(
                f"outer radius {self.r1} must stay below 1/q = {bound} for q = {_q(q)}"
            )

    @classmethod
    def for_q(cls, q, nodes: int = 256) -> "ContourConfig":
        """Default geometric spacing: r2, r1 at one and two thirds of (1, 1/q) on a log scale."""
        inv = 1.0 / float(_q(q))
        return cls(r2=inv ** (1.0 / 3.0), r1=inv ** (2.0 / 3.0), nodes=nodes)


def geometric_pmf(q, k: int) -> Fraction:
    """P[w = k] = (1-q) q^k for k >= 0, zero for k < 0."""
    qv = _q(q)
    if k < 0:
        return Fraction(0)
    return (1 - qv) * qv**k


def neg_binomial(q, m: int, x: int) -> Fraction:
    """m-fold convolution of the geometric law: (1-q)^m binom(x+m-1, x) q^x for x >= 0."""
    if m < 1:
        raise ValueError(f"convolution power m must be >= 1, got {m}")
    qv = _q(q)
    if x < 0:
        return Fraction(0)
    return (1 - qv) ** m * math.comb(x + m - 1, x) * qv**x


def heaviside_conv_pow(k: int, x: int) -> int:
    """k-fold convolution power of the shifted step h(x) = 1{x >= 1}.

    h^{*k}(x) = binom(x-1, k-1) for x >= k and 0 otherwise; convolving with
    h^{*k} realizes k-fold backward summation (Delta^-k) of a function whose
    support is bounded below.
    """
    if k < 1:
        raise ValueError(f"convolution power k must be >= 1, got {k}")
    if x < k:
        return 0
    return math.comb(x - 1, k - 1)


def delta_pow(
    f: Callable[[int], Fraction | float],
    k: int,
    x: int,
    *,
    support_min: int | None = None,
):
    """Apply the k-th power of the forward difference to f and evaluate at x.

    k > 0 uses the alternating binomial expansion and needs k+1 evaluations of
    f.  k < 0 is repeated summation sum_{y <= x-1}, which is only well defined
    when f vanishes below some point; callers must pass that point as
    `support_min`.  k = 0 returns f(x).  Exactness follows the scalar type
    returned by f.
    """
    if k == 0:
        return f(x)
    if k > 0:
        total = 0
        for i in range(k + 1):
            c = math.comb(k, i)
            term = c * f(x + i)
            total = total + term if (k - i) % 2 == 0 else total - term
        return total
    if support_min is None:
        raise ValueError("negative-order differences need a support bound (support_min)")
    depth = -k
    if x <= support_min:
        return 0
    # vals[i] holds the current layer's value at support_min + i; each pass
    # replaces it with the exclusive prefix sum, i.e. one backward summation.
    vals = [f(support_min + i) for i in range(x - support_min + 1)]
    for _ in range(depth):
        acc = 0
        for i, v in enumerate(vals):
            vals[i] = acc
            acc = acc + v
    return vals[-1]


def delta_neg_binomial(q, m: int, k: int, x: int) -> Fraction:
    """Exact Delta^k w_m(x) with the natural support bound 0 of w_m.

    The difference calculus runs on integers.  For q = a/b, `delta_pow`
    evaluates w_m nowhere above top = max(x, x+k, 0), and for 0 <= t <= top

        w_m(t) b^(m+top) = (b-a)^m binom(t+m-1, t) a^t b^(top-t).

    `delta_pow` therefore runs on the integers binom(t+m-1, t) a^t b^(top-t),
    and the result is scaled by (b-a)^m / b^(m+top) once, with one gcd,
    instead of reducing a Fraction at every addition.
    """
    if m < 1:
        raise ValueError(f"convolution power m must be >= 1, got {m}")
    qv = _q(q)
    a, b = qv.numerator, qv.denominator
    top = max(x, x + k, 0)

    def scaled(t: int) -> int:
        if t < 0:
            return 0
        return math.comb(t + m - 1, t) * a**t * b ** (top - t)

    total = delta_pow(scaled, k, x, support_min=0)
    return Fraction((b - a) ** m * total, b ** (m + top))


@lru_cache(maxsize=32)
def _unit_roots(count: int) -> np.ndarray:
    """The count-th roots of unity omega^k, built once per node count and read-only."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
    roots.flags.writeable = False
    return roots


def circle_nodes(radius: float, count: int) -> np.ndarray:
    """Equispaced quadrature nodes on the circle |z| = radius.

    The result is a fresh array, radius times the shared table of unit roots,
    so no caller can write into the table.
    """
    return radius * _unit_roots(count)


#: Relative agreement of two refinements that stops the doubling loop.
TOLERANCE = 1e-12
#: Roundoff allowance per unit of summand magnitude in the stopping rules.
ROUNDOFF = 64 * np.finfo(float).eps
#: Largest node count the doubling loop tries before giving up.
MAX_NODES = 8192


def adaptive_batch(evaluate, start_nodes: int):
    """Double the node count until two refinements of a batched integral agree.

    `evaluate` maps a node count to (values, summand_scale) with the scale
    broadcastable to the values; each element converges either relative to
    its own magnitude or down to the roundoff floor of its trapezoidal sum,
    whichever is coarser.  Elements whose summands grow like radius^x while
    their true value stays polynomial cannot beat that floor, and for them
    the floor is the honest stopping point.  Raises QuadratureError when
    MAX_NODES is reached without agreement.
    """
    prev, _ = evaluate(start_nodes)
    count = 2 * start_nodes
    while count <= MAX_NODES:
        cur, summand = evaluate(count)
        allowed = np.maximum(TOLERANCE * np.maximum(1.0, np.abs(cur)), ROUNDOFF * summand)
        if np.all(np.abs(cur - prev) <= allowed):
            return cur
        prev = cur
        count *= 2
    raise QuadratureError(f"batched contour quadrature did not stabilize within {MAX_NODES} nodes")


def delta_w_contour(q, m: int, k: int, x: int, cfg: ContourConfig | None = None) -> float:
    """Contour evaluation of Delta^k w_m(x).

    Represents the difference power as

        Delta^k w_m(x) = (1-q)^m /(2 pi i) oint (1-z)^k / ((1-qz)^m z^(x+k+1)) dz

    over a circle around the origin, by the trapezoidal rule doubled in
    `adaptive_batch`.  For k >= 0 the integrand has poles only at 0 and 1/q
    and the configured inner radius r2 < 1/q is used; for k < 0 the factor
    (1-z)^k adds a pole at z = 1, so the integration circle must stay inside
    the unit disk and a dedicated radius min(0.9, (1+q)/2) < 1 overrides
    cfg.r2.  Raises PrecisionLossError when a summand leaves the float range,
    or when the roundoff floor of the converged sum, ROUNDOFF (1-q)^m times
    its largest summand, exceeds 1e-8 max(1, |value|): for k < 0 the summands
    grow like radius^-x while the value stays bounded.
    """
    if m < 1:
        raise ValueError(f"convolution power m must be >= 1, got {m}")
    qf = float(_q(q))
    if cfg is None:
        cfg = ContourConfig.for_q(q)
    if k >= 0:
        cfg.validate_for(q)
        radius = cfg.r2
    else:
        radius = min(0.9, (1.0 + qf) / 2.0)
    scale = 0.0

    def evaluate(count: int):
        nonlocal scale
        z = circle_nodes(radius, count)
        terms = (1 - z) ** k / ((1 - qf * z) ** m * z ** (x + k + 1)) * z
        scale = np.max(np.abs(terms))
        return np.mean(terms), scale

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            val = adaptive_batch(evaluate, cfg.nodes)
        except FloatingPointError as exc:
            raise PrecisionLossError(
                f"contour summands for Delta^{k} w_{m}({x}) leave the float range"
            ) from exc
    weight = (1.0 - qf) ** m
    value = weight * float(np.real(val))
    if ROUNDOFF * weight * scale > 1e-8 * max(1.0, abs(value)):
        raise PrecisionLossError(
            f"roundoff floor of the contour sum for Delta^{k} w_{m}({x}) exceeds 1e-8"
        )
    return value
