"""Determinantal formulas for the coupled last-passage chain.

The multi-step transition kernel of the vector chain (G(i, 1), ..., G(i, n))
is an n x n determinant of difference powers of the step-count convolution
weight,

    P[G(l+s) = y | G(l) = x] = det( Delta^(j-i) w_s(y_j - x_i) )_{i,j=1..n},

and summing the same structure gives the one-point distribution function

    P[G(m, n) <= eta] = det( Delta^(j-i-1) w_m(eta + 1) )_{i,j=1..n},  m >= n.

Every entry comes from the one integer difference table of `weights`
(`delta_neg_binomial_orders`), and every determinant is an exact rational.
For q = a/b an entry is a power of b times (b-a)^steps times an integer, and
the power splits into a row scale and a column scale, so the transition
determinant and the joint sum eliminate on Python ints, by one fraction-free
Bareiss core, and divide once at the end.  The distribution function's entry
(i, j) depends on j - i alone, so that matrix is Toeplitz, and
`toeplitz_determinant` takes its determinant in O(n^2) word operations per
prime.  Its leading k x k block is the matrix of the narrower grid (m, k,
eta), so every leading minor is a positive probability and the Levinson
recursion never meets a zero one.  The two-point joint distribution sums,
over intermediate states, a transition determinant times a summed one, and
is an exactly rational finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

# `delta_neg_binomial` is not used here; it stays importable from this module,
# where the benchmark's tracer (`perfbench/spans.py`) wraps it.
from .weights import (GeometricParameter, OrderedVector, check_state_cap, delta_neg_binomial,
                      delta_neg_binomial_orders, toeplitz_determinant)

__all__ = [
    "TransitionQuery",
    "CdfQuery",
    "bareiss_determinant",
    "transition_det",
    "cdf_det",
    "joint_cdf",
]


@dataclass(frozen=True)
class TransitionQuery:
    """Endpoint pair and step count for the chain transition determinant."""

    q: GeometricParameter
    steps: int
    x: OrderedVector
    y: OrderedVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", GeometricParameter.coerce(self.q))
        object.__setattr__(self, "x", OrderedVector.coerce(self.x))
        object.__setattr__(self, "y", OrderedVector.coerce(self.y))
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if len(self.x) != len(self.y):
            raise ValueError(
                f"endpoint dimensions differ: {len(self.x)} vs {len(self.y)}"
            )

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class CdfQuery:
    """Parameters of the one-point distribution determinant; needs m >= n >= 1."""

    q: GeometricParameter
    m: int
    n: int
    eta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", GeometricParameter.coerce(self.q))
        if self.n < 1 or self.m < self.n:
            raise ValueError(
                f"need m >= n >= 1 (transpose the grid otherwise), got m={self.m}, n={self.n}"
            )
        if self.eta < 0:
            raise ValueError(f"threshold must be >= 0, got {self.eta}")


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Row pivoting; every division is exact (Bareiss, Math. Comp. 22, 1968).
    The rows are eliminated in place.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        right = a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            row[k + 1:] = [(v * pivot - lead * w) // prev for v, w in zip(row[k + 1:], right)]
        prev = pivot
    return sign * a[n - 1][n - 1]


def bareiss_determinant(matrix: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination with row pivoting.

    Each row is first scaled to integers by the lcm of its denominators, the
    integer elimination runs on Python ints, and the product of the row
    scales is divided out once at the end.  Integer and rational input take
    the same path.
    """
    a = []
    scale = 1
    for row in matrix:
        row = [Fraction(entry) for entry in row]
        if len(row) != len(matrix):
            raise ValueError("matrix must be square")
        lcm = math.lcm(*(entry.denominator for entry in row))
        a.append([entry.numerator * (lcm // entry.denominator) for entry in row])
        scale *= lcm
    return Fraction(_bareiss(a), scale)


def _integer_orders(q: GeometricParameter, steps: int, t: int, low: int, high: int,
                    width: int) -> list[int]:
    """b^(steps + t + width) (b-a)^-steps Delta^k w_steps(t) for k in [low, high].

    For q = a/b, `delta_neg_binomial_orders` returns these orders as integers
    over (b-a)^steps / b^(steps + top), with top = max(t + max(high, 0), 0)
    <= t + width for width >= max(high, 0) and t + width >= 0, so each value
    lifts to the common power of b by one integer factor.  Negative and
    nonnegative orders are built by separate calls: only the negative ones
    read the table over [0, t], and they are charged for top = t, as one
    entry of a negative order is.
    """
    b = q.value.denominator
    out = []
    for lo, hi in ((low, min(high, -1)), (max(low, 0), high)):
        if lo <= hi:
            values, scale = delta_neg_binomial_orders(q, steps, t, lo, hi)
            lift = b ** (steps + t + width) // scale.denominator
            out += [value * lift for value in values]
    return out


def transition_det(tq: TransitionQuery) -> Fraction:
    """Multi-step transition probability of the chain as an exact determinant.

    For q = a/b, entry (i, j) = Delta^(j-i) w_s(d) with d = y_j - x_i is
    (b-a)^s b^-(s + d + n - 1) times an integer, and 0 when d + n - 1 < 0.
    b^-d = b^(x_i) b^(-y_j) is a row scale times a column scale, so the
    determinant is (b-a)^(sn) b^-(n(s + n - 1) + sum(y) - sum(x)) times the
    determinant of the integer matrix.  Each difference d is built once per
    sign of the orders it is read at, when an entry first reads it, so a
    refused table names the entry that an entry-by-entry fill would.
    steps = 0 degenerates to the indicator of x = y.
    """
    if tq.steps == 0:
        return Fraction(int(tq.x.entries == tq.y.entries))
    q, s, n = tq.q, tq.steps, tq.n
    built: dict[tuple[int, int], list[int]] = {}

    def entry(d: int, k: int) -> int:
        if d + n - 1 < 0:
            return 0
        low, high = (1 - n, -1) if k < 0 else (0, n - 1)
        values = built.get((d, low))
        if values is None:
            values = built[d, low] = _integer_orders(q, s, d, low, high, n - 1)
        return values[k - low]

    det = _bareiss([[entry(tq.y[j] - tq.x[i], j - i) for j in range(n)] for i in range(n)])
    a, b = q.value.numerator, q.value.denominator
    exponent = n * (s + n - 1) + sum(tq.y) - sum(tq.x)
    return Fraction((b - a) ** (s * n) * det) * Fraction(b) ** -exponent


def cdf_det(cq: CdfQuery) -> Fraction:
    """P[G(m, n) <= eta] as an n x n determinant of difference powers at eta + 1.

    This is the summed transition determinant of m steps from the origin.
    Every x_i is 0, so entry (i, j) = Delta^(j-i-1) w_m(eta + 1) depends on
    j - i alone: the matrix is Toeplitz, and only its 2n - 1 distinct values
    Delta^k w_m(eta + 1), k in [-n, n-2], are computed, as integers over one
    common scale c (`delta_neg_binomial_orders`).  The determinant of the
    integer Toeplitz matrix comes from `toeplitz_determinant` (Levinson
    modulo primes, O(n^2) word operations per prime) and is multiplied by
    c^n once, giving the exact Fraction.  No leading minor can vanish: the
    leading k x k block is the matrix of (m, k, eta) over the same scale, so
    its determinant is c^-k P[G(m, k) <= eta] >= c^-k (1-q)^(mk) > 0 for
    k <= n <= m.
    """
    symbol, scale = delta_neg_binomial_orders(cq.q, cq.m, cq.eta + 1, -cq.n, cq.n - 2)
    return scale**cq.n * toeplitz_determinant(symbol)


def joint_cdf(
    q, m: int, n: int, eta1: int, eta2: int, trunc: int
) -> tuple[Fraction, Fraction]:
    """Exact two-point value P[G(m, m) <= eta1, G(n, n) <= eta2] for m < n.

    Sums, over intermediate states x of the n-dimensional chain after m steps
    with x_m <= eta1, the m-step transition determinant from the origin times
    the summed (n-m)-step transition determinant of reaching a final state
    below eta2.  G is monotone in both indices, so every coordinate of x is at
    most G(n, n) <= eta2 and the sum is exact.  `trunc`, a cutoff for the
    free coordinates x_(m+1)..x_n, must be >= max(eta1, eta2); no state it
    could cut off contributes, so it never changes the value and the returned
    increment is always 0.  The intermediate count is checked against the
    MEIXNER_MAX_STATES cap before any is visited.

    For q = a/b, the m-step matrix's column j is Delta^(j-i) w_m(x_j) over i,
    which is b^-(m + x_j + n - 1) (b-a)^m times integers that depend on x_j
    alone, and the summed matrix's row i is Delta^(j-i-1) w_(n-m)(eta2 + 1 -
    x_i) over j, which is b^-(n - m + eta2 + n - 1) b^(x_i) (b-a)^(n-m) times
    integers that depend on x_i alone.  The scales multiply to (b-a)^(n^2) /
    b^(n^2 + n eta2 + 2n(n-1)) for every state, so the sum over states runs on
    integer determinants and is divided once.  The integers are kept in two
    lists of eta2 + 1 vectors, one per coordinate value, each built once per
    call.
    """
    qp = GeometricParameter.coerce(q)
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if eta1 < 0 or eta2 < 0:
        return Fraction(0), Fraction(0)
    if trunc < max(eta1, eta2):
        raise ValueError(
            f"truncation bound {trunc} must be >= max(eta1, eta2) = {max(eta1, eta2)}"
        )
    top = min(eta1, eta2)
    # x_1..x_m in [0, top] and x_{m+1}..x_n in [x_m, eta2], counted by x_m = v.
    count = sum(
        math.comb(v + m - 1, m - 1) * math.comb(eta2 - v + n - m, n - m)
        for v in range(top + 1)
    )
    check_state_cap(count, f"joint intermediate states for m={m}, n={n}")
    # Orders j - i - 1 in [-n, n-2] of the summed matrix, per value of x_i;
    # row i is the slice [n-1-i, 2n-1-i).  Built first and from x_i = 0 up,
    # so a refused table is the one the first state's entries would charge.
    summed = [_integer_orders(qp, n - m, eta2 + 1 - v, -n, n - 2, n - 2)
              for v in range(eta2 + 1)]
    # Orders j - i in [1-n, n-1] of the m-step matrix, highest first, per value
    # of x_j; column j is the slice [n-1-j, 2n-1-j).  A value above `top` is
    # held only by x_(m+1)..x_n, which read no order below m + 1 - n, so
    # those orders are neither built nor charged there.
    first = []
    for v in range(eta2 + 1):
        skip = 0 if v <= top else m
        values = _integer_orders(qp, m, v, 1 - n + skip, n - 1, n - 1)
        first.append(values[::-1] + [0] * skip)
    total = 0
    for head in combinations_with_replacement(range(top + 1), m):
        for tail in combinations_with_replacement(range(head[-1], eta2 + 1), n - m):
            x = head + tail
            # m steps from the origin to x (transposed), then n - m steps to a
            # state below eta2.
            d1 = _bareiss([first[v][n - 1 - j:2 * n - 1 - j] for j, v in enumerate(x)])
            if d1:
                total += d1 * _bareiss([summed[v][n - 1 - i:2 * n - 1 - i]
                                        for i, v in enumerate(x)])
    a, b = qp.value.numerator, qp.value.denominator
    exponent = n * n + n * eta2 + 2 * n * (n - 1)
    return Fraction((b - a) ** (n * n) * total, b**exponent), Fraction(0)
