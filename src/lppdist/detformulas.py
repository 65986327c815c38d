"""Determinantal formulas for the coupled last-passage chain.

The multi-step transition kernel of the vector chain (G(i, 1), ..., G(i, n))
is an n x n determinant of difference powers of the step-count convolution
weight,

    P[G(l+s) = y | G(l) = x] = det( Delta^(j-i) w_s(y_j - x_i) )_{i,j=1..n},

and summing the same structure gives the one-point distribution function

    P[G(m, n) <= eta] = det( Delta^(j-i-1) w_m(eta + 1) )_{i,j=1..n},  m >= n.

Both evaluate in two scalar layers: exact rationals through a fraction-free
Bareiss elimination, and floats through LAPACK's LU factorization.  The
two-point joint distribution sums, over intermediate states, a transition
determinant times a summed one, and is an exactly rational finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .weights import (GeometricParameter, OrderedVector, PrecisionLossError, check_state_cap,
                      delta_neg_binomial)

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


def bareiss_determinant(matrix: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination with row pivoting.

    Each row is first scaled to integers by the lcm of its denominators.  The
    elimination then runs on Python ints, where every division is exact
    (Bareiss, Math. Comp. 22, 1968), and the product of the row scales is
    divided out once at the end.  Integer and rational input take the same
    path.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    a = []
    scale = 1
    for row in matrix:
        row = [Fraction(entry) for entry in row]
        if len(row) != n:
            raise ValueError("matrix must be square")
        lcm = math.lcm(*(entry.denominator for entry in row))
        a.append([entry.numerator * (lcm // entry.denominator) for entry in row])
        scale *= lcm
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
                return Fraction(0)
        pivot = a[k][k]
        right = a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            row[k + 1:] = [(v * pivot - lead * w) // prev for v, w in zip(row[k + 1:], right)]
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


#: Largest error the float layer answers with: 1-norm condition number times
#: machine epsilon must stay below it.
LU_TOLERANCE = 1e-8


def _lu_determinant(matrix: Sequence[Sequence[Fraction | int]]) -> float:
    """Float determinant by LU, refused when conditioning could spoil it.

    Rows, then columns, are first scaled by powers of two to a largest
    magnitude in [1/2, 1), which is exact and divides out exactly; the
    difference-power matrices span hundreds of orders of magnitude and are
    far better conditioned once balanced.  Raises PrecisionLossError when the
    balanced matrix's 1-norm condition number times machine epsilon, a bound
    on the relative error of its LU determinant, exceeds LU_TOLERANCE.  A
    zero row or column gives 0 exactly.
    """
    a = np.array(matrix, dtype=float)
    _, row_exp = np.frexp(np.max(np.abs(a), axis=1))
    a = np.ldexp(a, -row_exp[:, None])
    _, col_exp = np.frexp(np.max(np.abs(a), axis=0))
    a = np.ldexp(a, -col_exp[None, :])
    if not (np.all(np.any(a, axis=0)) and np.all(np.any(a, axis=1))):
        return 0.0
    bound = float(np.linalg.cond(a, 1)) * float(np.finfo(float).eps)
    if not bound <= LU_TOLERANCE:
        raise PrecisionLossError(
            f"float determinant of a {len(a)}x{len(a)} matrix has condition bound "
            f"{bound:.3g} above {LU_TOLERANCE}; use exact=True"
        )
    return math.ldexp(float(np.linalg.det(a)), int(row_exp.sum() + col_exp.sum()))


def _transition_matrix(tq: TransitionQuery) -> list[list[Fraction]]:
    q, s = tq.q, tq.steps
    return [
        [delta_neg_binomial(q, s, j - i, tq.y[j] - tq.x[i]) for j in range(tq.n)]
        for i in range(tq.n)
    ]


def transition_det(tq: TransitionQuery, *, exact: bool = True) -> Fraction | float:
    """Multi-step transition probability of the chain as a determinant.

    steps = 0 degenerates to the indicator of x = y.  The float layer reuses
    the exact entries and only swaps the determinant algorithm, so the two
    layers isolate elimination error from entry error.
    """
    if tq.steps == 0:
        hit = tq.x.entries == tq.y.entries
        return Fraction(int(hit)) if exact else float(hit)
    matrix = _transition_matrix(tq)
    return bareiss_determinant(matrix) if exact else _lu_determinant(matrix)


def _summed_transition_matrix(q, steps: int, x, eta: int) -> list[list[Fraction]]:
    """Matrix whose determinant sums the transition det over ordered y with y_n <= eta.

    Summing det( Delta^(j-i) w_s(y_j - x_i) ) over the ordered final states
    below eta lowers every difference power by one and evaluates it at
    eta + 1 - x_i: the sum is det( Delta^(j-i-1) w_s(eta + 1 - x_i) ).
    """
    n = len(x)
    return [
        [delta_neg_binomial(q, steps, j - i - 1, eta + 1 - x[i]) for j in range(n)]
        for i in range(n)
    ]


def cdf_det(cq: CdfQuery, *, exact: bool = True) -> Fraction | float:
    """P[G(m, n) <= eta] as an n x n determinant of difference powers at eta + 1.

    This is the summed transition determinant of m steps from the origin.
    Every x_i is 0, so entry (i, j) = Delta^(j-i-1) w_m(eta + 1) depends on
    j - i alone: the matrix is Toeplitz, and only its 2n - 1 distinct values
    Delta^k w_m(eta + 1), k in [-n, n-2], are computed.
    """
    n = cq.n
    values = [delta_neg_binomial(cq.q, cq.m, k, cq.eta + 1) for k in range(-n, n - 1)]
    matrix = [[values[j - i - 1 + n] for j in range(n)] for i in range(n)]
    return bareiss_determinant(matrix) if exact else _lu_determinant(matrix)


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

    Entries depend only on (steps, k, t): Delta^(j-i) w_m(x_j) and
    Delta^(j-i-1) w_(n-m)(eta2 + 1 - x_i).  Each is computed once per call and
    kept in a dict of at most 2n (eta2 + 2) values per step count.
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
    memo: dict[tuple[int, int, int], Fraction] = {}

    def entry(steps: int, k: int, t: int) -> Fraction:
        key = (steps, k, t)
        value = memo.get(key)
        if value is None:
            value = memo[key] = delta_neg_binomial(qp, steps, k, t)
        return value

    span = range(n)
    total = Fraction(0)
    for head in combinations_with_replacement(range(top + 1), m):
        for tail in combinations_with_replacement(range(head[-1], eta2 + 1), n - m):
            x = head + tail
            # m steps from the origin to x, then n - m steps to a state below eta2.
            d1 = bareiss_determinant([[entry(m, j - i, x[j]) for j in span] for i in span])
            total += d1 * bareiss_determinant(
                [[entry(n - m, j - i - 1, eta2 + 1 - x[i]) for j in span] for i in span]
            )
    return total, Fraction(0)
