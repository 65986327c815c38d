"""Pointwise oracles that only the tests call.

Each is a direct transcription of a formula of the paper, evaluated one
point at a time: the Heaviside kernel h^{*k} and the contour integral of
Delta^k w_m for the weight calculus, the pointwise families a_j(x), b_j(x)
and the change of basis c between them for the contour route, and the
Vandermonde product and site weight for the ensemble.  The package computes
the same quantities in batches or on integers; these check it.
"""

import math
from fractions import Fraction

import numpy as np

from lppdist import (ContourConfig, GeometricParameter, KernelSpec, PrecisionLossError,
                     adaptive_batch, circle_nodes)
from lppdist.fredholm import _a_values, _b_values
from lppdist.weights import ROUNDOFF


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
    qf = float(GeometricParameter.coerce(q).value)
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


def _check_index(spec: KernelSpec, j: int) -> None:
    if not 0 <= j < spec.n:
        raise ValueError(f"family index must satisfy 0 <= j < n = {spec.n}, got {j}")


def a_fn(spec: KernelSpec, j: int, x: int) -> float:
    """Value a_j(x); for x >= 1 it is (q-1)^(j+K)/j! times a degree-j monic
    polynomial in x (at x = 0 the integrand picks up an extra residue at the
    origin, so the polynomial identity starts at 1)."""
    _check_index(spec, j)
    return float(_a_values(spec, np.array([x]))[j, 0])


def b_fn(spec: KernelSpec, j: int, x: int) -> float:
    """Value b_j(x); vanishes for x <= 0 and decays at worst like r1^(-x)."""
    _check_index(spec, j)
    return float(_b_values(spec, np.array([x]))[j, 0])


def c_matrix(n: int) -> list[list[int]]:
    """Unit lower-triangular change of basis linking difference powers of w_m to b.

    c[j][l] = binom(n-l-1, j-l) for j >= l, else 0; its determinant is 1, so
    it can absorb column operations in the pairing determinant without
    changing the value.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return [
        [math.comb(n - l - 1, j - l) if j >= l else 0 for l in range(n)]
        for j in range(n)
    ]


def vandermonde(x) -> int:
    """prod_{i<j} (x_j - x_i) over one particle configuration."""
    xs = list(x)
    out = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[j] - xs[i]
    return out


def meixner_weight(q, a: int, x: int) -> Fraction:
    """Single-particle weight binom(x + a, x) q^x (a = m - n >= 0)."""
    qv = GeometricParameter.coerce(q).value
    if x < 0:
        return Fraction(0)
    return Fraction(math.comb(x + a, x)) * qv**x
