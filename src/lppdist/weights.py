"""Scalar calculus for geometric weight models.

The model parameter is an exact rational q in (0, 1).  The one-site weight is
the geometric law P[w = k] = (1-q) q^k on k >= 0, and its m-fold convolution
is the negative binomial

    w_m(x) = (1-q)^m binom(x+m-1, x) q^x        for x >= 0, else 0.

On top of these the module provides the forward difference calculus

    (Delta f)(x)      = f(x+1) - f(x)
    (Delta^-1 f)(x)   = sum_{y <= x-1} f(y)     (f vanishing below a support bound)

with integer powers of either sign.  Exact operations return
`fractions.Fraction`, on w_m from one integer table
(`delta_neg_binomial_orders`).  For the contour route it holds the circle
nodes and the one adaptive doubling loop of every trapezoidal quadrature.

It is also the one module the four routes share: besides the calculus it
holds the error types, the MEIXNER_MAX_STATES state cap (`check_state_cap`)
that bounds every enumeration and Monte Carlo grid, `OrderedVector`, the
weakly increasing state of the vector chain, and `toeplitz_determinant`, an
exact determinant of an integer Toeplitz matrix by the Levinson recursion
modulo primes and the Chinese remainder theorem, which knows nothing of the
routes.  No route imports another.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GeometricParameter",
    "OrderedVector",
    "ContourConfig",
    "QuadratureError",
    "PrecisionLossError",
    "StateSpaceError",
    "SingularMinorError",
    "MAX_STATES_ENV",
    "DEFAULT_MAX_STATES",
    "check_state_cap",
    "geometric_pmf",
    "neg_binomial",
    "delta_pow",
    "delta_neg_binomial",
    "delta_neg_binomial_orders",
    "circle_nodes",
    "adaptive_batch",
    "toeplitz_determinant",
]


class QuadratureError(RuntimeError):
    """Contour quadrature failed to converge within the node cap."""


class PrecisionLossError(RuntimeError):
    """A float or fixed-precision route cannot stand behind its answer.

    Raised by the Gram route's conditioning check (a numerically singular or
    ill-conditioned moment matrix at the requested digits, or too large a
    box), wherever a value, a contour summand or a contour factor leaves
    the float range, including a probability outside [0, 1] by more than the
    declared tolerance, and by a float route whose q rounds to 0.0 or 1.0
    (`GeometricParameter.__float__`).
    """


MAX_STATES_ENV = "MEIXNER_MAX_STATES"
DEFAULT_MAX_STATES = 5_000_000


class StateSpaceError(RuntimeError):
    """Requested exact enumeration exceeds the configured state cap."""


class SingularMinorError(ArithmeticError):
    """A leading minor of a Toeplitz matrix, below its full size, is zero over Q."""


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
    5e6) unless the caller passes the value it already read.
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
        # hash(Fraction) takes a modular inverse, and float(Fraction) a
        # division: both are taken once here, the hash the one the dataclass
        # would compute, hash((value,)).
        object.__setattr__(self, "_hash", hash((v,)))
        object.__setattr__(self, "_float", float(v))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def coerce(cls, q: "GeometricParameter | Fraction | str | int") -> "GeometricParameter":
        """q as a GeometricParameter; a valid exact q is validated once and reused.

        A Fraction is looked up by its numerator and denominator, which hash
        faster than it does.  Any other argument goes through the
        constructor, which refuses floats, and its value is looked up the
        same way, so "1/2" and Fraction(2, 4) share one instance.  An
        invalid q, never kept, raises on every call.
        """
        if isinstance(q, cls):
            return q
        if type(q) is Fraction:
            return _fraction_parameter(cls, q.numerator, q.denominator)
        value = cls(q).value
        return _fraction_parameter(cls, value.numerator, value.denominator)

    def __float__(self) -> float:
        """q as a float, for the float routes.

        Raises PrecisionLossError when q rounds to 0.0 or 1.0, where the
        geometric law of the float routes degenerates; the exact routes
        never take this float, so they still answer such a q.
        """
        qf = self._float
        if not 0.0 < qf < 1.0:
            raise PrecisionLossError(
                f"q rounds to {qf} as a float; the float routes need it strictly inside (0, 1)"
            )
        return qf

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class OrderedVector:
    """A point of the ordered cone: a weakly increasing tuple of integers.

    Entries pass through `operator.index`, so a float or a string raises
    TypeError instead of being truncated or parsed.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        ent = tuple(map(operator.index, self.entries))
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


@lru_cache(maxsize=256)
def _fraction_parameter(cls, numerator: int, denominator: int) -> GeometricParameter:
    return cls(Fraction(numerator, denominator))


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
        qp = GeometricParameter.coerce(q)
        bound = 1.0 / float(qp)
        if not self.r1 < bound:
            raise ValueError(
                f"outer radius {self.r1} must stay below 1/q = {bound} for q = {qp}"
            )

    @classmethod
    def for_q(cls, q, nodes: int = 256) -> "ContourConfig":
        """Default geometric spacing: r2, r1 at one and two thirds of (1, 1/q) on a log scale.

        Built once per (q, nodes) and shared, which is safe because a config is frozen.
        """
        return _spaced_config(cls, GeometricParameter.coerce(q), nodes)


@lru_cache(maxsize=256, typed=True)
def _spaced_config(cls, q: GeometricParameter, nodes: int) -> ContourConfig:
    inv = 1.0 / float(q)
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


def _charge_integer_table(top: int, b: int, m: int, what: str) -> None:
    """Charge the top + 1 table integers to the state cap, in 64-bit words.

    Each integer is binom(t+m-1, t) a^t b^(top-t) for some t <= top and
    q = a/b, so at most binom(top+m-1, top) b^top.  The table holds about
    top^2 log2(b) / 2 bits, so a large top is refused before it is built.
    """
    log_binom = math.lgamma(top + m) - math.lgamma(top + 1) - math.lgamma(m)
    bits = top * math.log2(b) + log_binom / math.log(2)
    check_state_cap((top + 1) * (int(bits) // 64 + 1), what)


def delta_neg_binomial(q, m: int, k: int, x: int) -> Fraction:
    """Exact Delta^k w_m(x) with the natural support bound 0 of w_m.

    The one-order view of `delta_neg_binomial_orders` (low = high = k), with
    its window, its charge for k < 0, and any integer x.
    """
    values, scale = delta_neg_binomial_orders(q, m, x, k, k)
    return Fraction(scale.numerator * values[0], scale.denominator)


def delta_neg_binomial_orders(q, m: int, x: int, low: int, high: int) -> tuple[list[int], Fraction]:
    """Delta^k w_m(x) for every k in [low, high], as integers over one scale.

    Returns (values, scale) with Delta^k w_m(x) = scale * values[k - low].
    For q = a/b and top = max(x, x + high, 0), w_m(t) b^(m + top) =
    (b-a)^m binom(t+m-1, t) a^t b^(top-t) is an integer for t <= top, so
    scale = (b-a)^m / b^(m + top) and no value is reduced on its own.  The
    integers fill one table over the window the orders read, t in [0, x]
    for negative orders and [x, x + high] for the others, zero below t = 0:
    built upward as binom(t+m-1, t) a^t, then scaled in place by b^(top-t)
    from the top down.  With S the inclusive prefix sum, Delta^-j w_m(x) =
    S^j w_m(x - j), so pass j of S runs in place over t <= x - j and leaves
    order -j at t = x - j, out of reach of later passes; orders <= 0 are 0
    for x < 0.  Nonnegative orders lead the forward-difference table over
    t = x .. x + high.  When a negative order reads the table (x > 0), its
    top + 1 integers are charged to the state cap before it is built;
    nonnegative orders alone read high + 1 integers and are not charged.
    """
    if m < 1:
        raise ValueError(f"convolution power m must be >= 1, got {m}")
    if low > high:
        raise ValueError(f"need low <= high, got low={low}, high={high}")
    qv = _q(q)
    a, b = qv.numerator, qv.denominator
    first, last = min(x, 0) if low < 0 else x, x + max(high, 0)
    top = max(last, 0)
    if low < 0 < x:
        _charge_integer_table(top, b, m, f"difference table words for m={m}, x={x}")
    start = max(first, 0)
    table = [0] * (min(start, last + 1) - first)  # t < 0
    if start <= last:
        binom, a_power = math.comb(start + m - 1, start), a**start
        for t in range(start, last + 1):
            table.append(binom * a_power)
            binom = binom * (t + m) // (t + 1)
            a_power *= a
        b_power = 1
        for i in reversed(range(start - first, len(table))):
            table[i] *= b_power
            b_power *= b
    values = []
    if low < 0:
        for j in range(1, min(-low, x) + 1):
            for i, total in enumerate(accumulate(islice(table, x - j + 1))):
                table[i] = total
        values = [table[x + k] if x + k >= 0 else 0 for k in range(low, min(high, -1) + 1)]
    if high >= 0:
        row = table[x - first:]
        for k in range(high + 1):
            if k >= low:
                values.append(row[0])
            row = [right - left for left, right in zip(row, row[1:])]
    return values, Fraction((b - a) ** m, b ** (m + top))


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

_ROUNDOFF = float(ROUNDOFF)


def _array_converged(cur, prev, summand) -> bool:
    """The stopping rule on arrays: every element within its allowance."""
    allowed = np.maximum(TOLERANCE * np.maximum(1.0, np.abs(cur)), ROUNDOFF * summand)
    return bool(np.all(np.abs(cur - prev) <= allowed))


def _float_converged(cur: float, prev: float, summand: float) -> bool:
    """The stopping rule of `_array_converged` on Python floats, without numpy.

    np.maximum propagates NaN, so a NaN roundoff term makes the allowance
    NaN and refuses; a NaN |cur| refuses anyway, because then the
    difference is NaN as well.
    """
    roundoff = _ROUNDOFF * summand
    if roundoff != roundoff:
        return False
    diff = abs(cur - prev)
    return diff <= TOLERANCE * max(1.0, abs(cur)) or diff <= roundoff


def adaptive_batch(evaluate, start_nodes: int):
    """Double the node count until two refinements of a batched integral agree.

    `evaluate` maps a node count to (values, summand_scale) with the scale
    broadcastable to the values; each element converges either relative to
    its own magnitude or down to the roundoff floor of its trapezoidal sum,
    whichever is coarser.  Elements whose summands grow like radius^x while
    their true value stays polynomial cannot beat that floor, and for them
    the floor is the honest stopping point.  When a refinement's values and
    scale are both Python floats, as for one kernel entry, the rule runs on
    `abs` and float comparisons (`_float_converged`) and takes the same
    decision as the ufunc rule at a small fraction of its cost, which
    exceeds a whole warm kernel round.  Raises QuadratureError when
    MAX_NODES is reached without agreement.
    """
    prev, _ = evaluate(start_nodes)
    count = 2 * start_nodes
    while count <= MAX_NODES:
        cur, summand = evaluate(count)
        if type(cur) is float and type(summand) is float:
            converged = _float_converged(cur, prev, summand)
        else:
            converged = _array_converged(cur, prev, summand)
        if converged:
            return cur
        prev = cur
        count *= 2
    raise QuadratureError(f"batched contour quadrature did not stabilize within {MAX_NODES} nodes")


#: Primes come from just below 2^30, so Python reduces a big integer by one
#: in a single-digit pass.  A product of two residues stays below 2^60, so a
#: sum or difference of two products still fits in an int64.
_PRIME_TOP = 1 << 30
#: Every prime used exceeds 2^_PRIME_BITS; the prime counts rely on it.
_PRIME_BITS = 29
#: Width of one sieved segment of integers below _PRIME_TOP (about 3000 primes).
_SEGMENT = 1 << 16
#: Bytes of one integer reduced per float matrix product: a byte times a
#: residue is below 2^38, so a sum of this many stays exact in a float64.
_LIMB_BLOCK = 1 << 14


@lru_cache(maxsize=1)
def _sieving_primes() -> tuple[int, ...]:
    """The primes up to sqrt(2^30), which sieve every segment below 2^30."""
    limit = math.isqrt(_PRIME_TOP) + 1
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return tuple(np.flatnonzero(sieve).tolist())


@lru_cache(maxsize=4)
def _prime_segment(index: int) -> np.ndarray:
    """The primes of segment `index` below 2^30, largest first, read-only."""
    low = _PRIME_TOP - (index + 1) * _SEGMENT
    if low <= 1 << _PRIME_BITS:
        raise StateSpaceError(f"more primes asked for than lie in (2^{_PRIME_BITS}, 2^30)")
    sieve = np.ones(_SEGMENT, dtype=bool)
    for p in _sieving_primes():
        sieve[-low % p::p] = False
    primes = low + np.flatnonzero(sieve)[::-1]
    primes.flags.writeable = False
    return primes


def _primes(start: int, count: int) -> np.ndarray:
    """Primes number start .. start + count - 1 of the primes below 2^30, largest first.

    Segments are sieved on demand and at most four are kept, so importing
    the module builds no table and the kept primes stay under 100 KB.
    """
    parts, seen, index = [], 0, 0
    while seen < start + count:
        segment = _prime_segment(index)
        lo, hi = max(start - seen, 0), min(start + count - seen, segment.size)
        if lo < hi:
            parts.append(segment[lo:hi])
        seen += segment.size
        index += 1
    return np.concatenate(parts).astype(np.int64)


def _hadamard_bits(symbol: Sequence[int], n: int) -> int:
    """h with every leading minor of the Toeplitz matrix at most 2^h in absolute value.

    Row i holds t_-i .. t_(n-1-i).  Hadamard's inequality bounds a leading
    k x k minor by the product of its rows' norms, each at most its full
    row's norm, or 1 for a zero row; a norm is below 2^ceil(bits / 2) of
    its square.
    """
    squares = [0, *accumulate(t * t for t in symbol)]
    return sum((squares[2 * n - 1 - i] - squares[n - 1 - i]).bit_length() + 1 >> 1
               for i in range(n))


def _residues(values: Sequence[int], primes: np.ndarray) -> np.ndarray:
    """values modulo each prime, shape (primes, values).

    Each |value| is split into little-endian bytes; with the table of
    256^i mod p, a block of bytes reduces by one float matrix product whose
    sums stay below 2^53, so they are exact.
    """
    size = max(v.bit_length() for v in values) // 8 + 1
    raw = b"".join(abs(v).to_bytes(size, "little") for v in values)
    digits = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), size)
    powers = np.empty((size, primes.size), dtype=np.int64)
    powers[0] = 1
    step, filled = np.full(primes.size, 256, dtype=np.int64), 1
    while filled < size:
        more = min(filled, size - filled)
        powers[filled:filled + more] = powers[:more] * step % primes
        step = step * step % primes
        filled += more
    out = np.zeros((primes.size, len(values)), dtype=np.int64)
    for lo in range(0, size, _LIMB_BLOCK):
        block = powers[lo:lo + _LIMB_BLOCK].astype(float).T @ digits[:, lo:lo + _LIMB_BLOCK].T
        out += block.astype(np.int64) % primes[:, None]
    negative = np.array([v < 0 for v in values])
    out[:, negative] = -out[:, negative]
    return out % primes[:, None]


def _levinson_residues(t: np.ndarray, primes: np.ndarray):
    """Toeplitz determinant modulo each prime by the Levinson recursion.

    Row r of `t` holds the symbol t_-(n-1) .. t_(n-1) modulo primes[r];
    every prime is one row of each array, so one step serves all of them.
    The recursion is the non-symmetric one of Trench (J. SIAM 12, 1964) and
    Zohar (J. ACM 21, 1974) without divisions: T_k F = s e_1 and T_k G =
    s e_k with F_0 = G_(k-1) = phi, and with E_f, E_g the entries of
    T_(k+1) [F; 0] and T_(k+1) [0; G] that fall outside T_k,

        F <- s [F; 0] - E_f [0; G],   G <- s [0; G] - E_g [F; 0],
        s <- s^2 - E_f E_g,           phi <- s phi,

    so the k-th leading minor is D_k = D_(k-1) s_k / phi_k.  Returns
    (num, den, first_zero): D_n = num / den modulo each prime, and the
    smallest k < n with D_k = 0 modulo that prime, or n when none is; a
    row with first_zero < n holds no determinant.  Every product is of two
    residues below 2^30 and is reduced before it is summed.
    """
    rows, width = t.shape
    n = (width + 1) // 2
    p = primes[:, None]
    f = np.zeros((rows, n), dtype=np.int64)
    g = np.zeros((rows, n + 1), dtype=np.int64)  # g[:, 1:] holds G, so g[:, :k+1] is [0; G]
    f[:, 0] = g[:, 1] = 1
    s = t[:, n - 1].copy()
    phi = np.ones(rows, dtype=np.int64)
    num, den = s.copy(), phi.copy()
    pivots = [s]
    for k in range(1, n):
        fk, gk = f[:, :k + 1], g[:, :k + 1]  # [F; 0] and [0; G]
        e_f = (t[:, n - 1 - k:n - 1] * fk[:, :k] % p).sum(axis=1) % primes
        e_g = (t[:, n:n + k] * gk[:, 1:] % p).sum(axis=1) % primes
        f_next = s[:, None] * fk - e_f[:, None] * gk
        g_next = s[:, None] * gk - e_g[:, None] * fk
        np.remainder(f_next, p, out=fk)
        np.remainder(g_next, p, out=g[:, 1:k + 2])
        phi = phi * s % primes
        den = den * phi % primes
        s = (s * s - e_f * e_g % primes) % primes
        num = num * s % primes
        pivots.append(s)
    pivots[-1] = np.zeros(rows, dtype=np.int64)  # D_n may vanish; this stops the search at n
    first_zero = (np.array(pivots) == 0).argmax(axis=0) + 1
    return num, den, first_zero


def _crt(num: list[int], den: list[int], primes: list[int]) -> int:
    """The x with |x| < M/2 and x den_i = num_i modulo each prime, M their product.

    With u_i = (M / p_i) mod p_i, x = sum_i w_i M / p_i modulo M for
    w_i = num_i / (den_i u_i) mod p_i: one modular inverse per prime.  Both
    walk a product tree of the primes.  Down the tree, the cofactor M / N
    modulo a node N is its parent's times its sibling; at a leaf it is u_i.
    Up the tree, each node combines its halves as V_L M_R + V_R M_L.
    """
    tree = [primes]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:])
    cofactors = [1]
    for level in tree[-2::-1]:
        below = []
        for i, c in enumerate(cofactors):
            if 2 * i + 1 < len(level):
                left, right = level[2 * i], level[2 * i + 1]
                below += [c * right % left, c * left % right]
            else:
                below.append(c)
        cofactors = below
    values = [r * pow(d * u % p, -1, p) % p for r, d, u, p in zip(num, den, cofactors, primes)]
    for level in tree[:-1]:
        values = [va * mb + vb * ma for va, vb, ma, mb in
                  zip(values[::2], values[1::2], level[::2], level[1::2])] + values[len(level) & ~1:]
    modulus = tree[-1][0]
    x = values[0] % modulus
    return x - modulus if 2 * x > modulus else x


def toeplitz_determinant(symbol: Sequence[int]) -> int:
    """Exact determinant of the n x n Toeplitz matrix T[i][j] = t_(j-i).

    `symbol` lists the integers t_-(n-1) .. t_(n-1).  The determinant is
    taken modulo primes just below 2^30 by the Levinson recursion
    (`_levinson_residues`), O(n^2) word operations per prime, and rebuilt
    by the Chinese remainder theorem (`_crt`).  The primes number enough
    for their product to exceed twice the Hadamard bound of the matrix, and
    one spare prime more checks the result.  A prime at which a leading
    minor below the full size vanishes is dropped and replaced; when one
    minor vanishes at primes whose product exceeds the Hadamard bound, it
    is zero over Q and SingularMinorError is raised.  The primes times the
    2n - 1 residues of each are charged to the MEIXNER_MAX_STATES cap
    before any array is built.  Raises ArithmeticError when the spare prime
    disagrees, which exact arithmetic rules out.
    """
    symbol = [int(t) for t in symbol]
    width = len(symbol)
    if width % 2 == 0:
        raise ValueError(f"a Toeplitz symbol has 2n - 1 entries, got {width}")
    n = (width + 1) // 2
    bits = _hadamard_bits(symbol, n)
    count = (bits + 1) // _PRIME_BITS + 1
    check_state_cap((count + 1) * width, f"Toeplitz residues for n={n}")
    kept_primes, kept_num, kept_den = [], [], []
    misses = np.zeros(n + 1, dtype=np.int64)
    drawn, need = 0, count + 1
    while need:
        primes = _primes(drawn, need)
        drawn += need
        num, den, first_zero = _levinson_residues(_residues(symbol, primes), primes)
        good = first_zero == n
        kept_primes += primes[good].tolist()
        kept_num += num[good].tolist()
        kept_den += den[good].tolist()
        misses += np.bincount(first_zero[~good], minlength=n + 1)
        zero = np.flatnonzero((misses > 0) & (_PRIME_BITS * misses >= bits))
        if zero.size:
            raise SingularMinorError(
                f"leading {zero[0]}x{zero[0]} minor of a {n}x{n} Toeplitz matrix is zero")
        need -= int(good.sum())
    x = _crt(kept_num[:count], kept_den[:count], kept_primes[:count])
    spare = kept_primes[count]
    if (x * kept_den[count] - kept_num[count]) % spare:
        raise ArithmeticError(f"Toeplitz determinant fails its check modulo the spare prime {spare}")
    return x
