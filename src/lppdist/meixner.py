"""Meixner ensemble representation of the last-passage distribution.

P[G(m, n) <= eta] equals the probability that all n particles of the Meixner
orthogonal polynomial ensemble with weight rho(x) = binom(x + m - n, x) q^x
sit inside {0, ..., eta + n - 1}:

    P = (1 / Z_{m,n}) sum_{x in box^n} Delta(x)^2 prod_j rho(x_j),

with Delta the Vandermonde product and Z the same sum over the full lattice.
Both evaluations normalise by the exact Z of `partition_function`, the
closed-form product of the squared norms of the monic Meixner polynomials.
The numerators are independent: an exact rational brute-force box sum, and a
high-precision Gram route that forms the box moment matrix numerically and
takes its determinant.  The brute-force numerator covers every cell of the
box: for q = num/den it sums integer site weights scaled by
den^(eta+n-1) and divides once, and it builds Delta^2 coordinate by
coordinate from prefix products, so a cell costs one multiply-add; the
weight rho and the Vandermonde product enter only there, on integers, and
are not offered on their own.  The module also evaluates the underlying
Meixner polynomials exactly, by their three-term recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .weights import GeometricParameter, PrecisionLossError, StateSpaceError, check_state_cap

__all__ = [
    "MeixnerEnsembleQuery",
    "partition_function",
    "meixner_cdf_bruteforce",
    "meixner_cdf_gram",
    "meixner_poly",
]

_BRUTEFORCE_MAX_N = 4


@dataclass(frozen=True)
class MeixnerEnsembleQuery:
    """Ensemble parameters; eta = -1 is the empty box with probability zero."""

    q: GeometricParameter
    m: int
    n: int
    eta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", GeometricParameter.coerce(self.q))
        if self.n < 1 or self.m < self.n:
            raise ValueError(
                f"need m >= n >= 1, got m={self.m}, n={self.n}"
            )
        if self.eta < -1:
            raise ValueError(f"threshold must be >= -1, got {self.eta}")

    @property
    def box_high(self) -> int:
        """Largest admissible particle position, eta + n - 1."""
        return self.eta + self.n - 1


def partition_function(q, m: int, n: int) -> Fraction:
    """Exact full-lattice normalization Z_{m,n}, a product of Meixner norms.

    With beta = m - n + 1 the monic Meixner polynomials of the weight
    binom(x + beta - 1, x) q^x have squared norms j! (beta)_j q^j
    (1-q)^-(beta+2j) (Koekoek, Lesky and Swarttouw, Hypergeometric
    Orthogonal Polynomials, 2010, section 9.10), and Z is n! times their
    product over j < n (Johansson, Comm. Math. Phys. 209, 2000).  For q = a/b
    the product runs on integers,

        Z = n! prod_j j! (beta)_j a^j b^(beta+j) / prod_j (b-a)^(beta+2j),

    and is divided once.
    """
    if n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    qv = GeometricParameter.coerce(q).value
    a, b = qv.numerator, qv.denominator
    beta = m - n + 1
    pairs = n * (n - 1) // 2
    # math.perm(beta + j - 1, j) is the rising factorial (beta)_j.
    norms = math.prod(math.factorial(j) * math.perm(beta + j - 1, j) for j in range(n))
    return Fraction(
        math.factorial(n) * norms * a**pairs * b ** (n * beta + pairs),
        (b - a) ** (n * beta + 2 * pairs),
    )


def _box_sum(site: list[int], n: int) -> int:
    """sum over x in {0, ..., len(site)-1}^n of Delta(x)^2 prod_j site[x_j].

    Walks the box one coordinate at a time.  After the prefix x_1..x_k the
    list `weights` holds site[y] prod_{i<=k} (y - x_i)^2 for every y, so
    choosing x_{k+1} = y multiplies the prefix weight by weights[y] and the
    next list is this one times the squared differences from y.  At the last
    coordinate the sum over all y is taken first and multiplied by the
    prefix weight once.  A prefix that repeats a coordinate has weight 0 and
    its subtree is skipped; those cells contribute exactly 0.  At most one
    list per open coordinate is alive, so memory is O(n len(site)).
    """

    def extend(weights: list[int], left: int) -> int:
        if left == 1:
            return sum(weights)
        total = 0
        for x, w in enumerate(weights):
            if w:
                total += w * extend([v * (y - x) ** 2 for y, v in enumerate(weights)], left - 1)
        return total

    return extend(site, n)


def meixner_cdf_bruteforce(mq: MeixnerEnsembleQuery) -> Fraction:
    """Exact rational box sum of the ensemble over {0, ..., eta+n-1}^n.

    The numerator visits every cell of the box (no symmetry reduction and no
    moment reduction, which keeps the implementation honest as a brute-force
    oracle); the normalization is the closed-form product of Meixner norms.
    For q = num/den and hi = eta+n-1 each site weight is scaled to the integer
    binom(x+a, x) num^x den^(hi-x), so the sum runs on integers and is
    divided by den^(n hi) once.  Delta^2 is built by prefix products,
    Delta(x_1..x_k)^2 = Delta(x_1..x_{k-1})^2 prod_{i<k} (x_k - x_i)^2, so
    each cell costs one multiply-add.  n is capped at 4 and the box size at
    the MEIXNER_MAX_STATES cap.
    """
    n, mdim, eta = mq.n, mq.m, mq.eta
    if n > _BRUTEFORCE_MAX_N:
        raise StateSpaceError(f"brute-force box sum supports n <= {_BRUTEFORCE_MAX_N}, got {n}")
    if eta < 0:
        return Fraction(0)
    hi = mq.box_high
    check_state_cap((hi + 1) ** n, f"Meixner box cells for n={n}, eta={eta}")
    num, den = mq.q.value.numerator, mq.q.value.denominator
    a = mdim - n
    site = [math.comb(x + a, x) * num**x * den ** (hi - x) for x in range(hi + 1)]
    numerator = Fraction(_box_sum(site, n), den ** (n * hi))
    return numerator / partition_function(mq.q, mdim, n)


#: Most box sites the Gram route sums over before it refuses the query.
_GRAM_MAX_SITES = 1_000_000


def _box_moments(mq: MeixnerEnsembleQuery) -> list:
    """Power moments of the particle positions over the box, centred on its midpoint."""
    # Imported here, as in `meixner_cdf_gram`: only the Gram route needs
    # mpmath, and a package import without it stays about 4 MB smaller.
    import mpmath

    a = mq.m - mq.n
    qf = mpmath.mpf(mq.q.value.numerator) / mq.q.value.denominator
    shift = mpmath.mpf(mq.box_high) / 2
    top = 2 * mq.n - 2
    box = [mpmath.mpf(0)] * (top + 1)
    for x in range(mq.box_high + 1):
        rho = mpmath.mpf(math.comb(x + a, x)) * qf**x
        centered = mpmath.mpf(x) - shift
        power = mpmath.mpf(1)
        for r in range(top + 1):
            box[r] += power * rho
            power *= centered
    return box


def meixner_cdf_gram(mq: MeixnerEnsembleQuery, precision: int = 50):
    """High-precision ensemble probability from the box Gram determinant.

    The box moment matrix is formed in centered monomials (x - (eta+n-1)/2)^k
    to tame its conditioning, and P = n! det(box) / Z with Z the exact
    `partition_function`.  Centering is a unimodular change of basis, so the
    full-lattice centered Hankel determinant is Z / n! and the ratio is the
    ensemble probability exactly.  Raises PrecisionLossError when the box has
    more than 10^6 sites, when the conditioning of the box matrix eats more
    than the working precision can support, or when that matrix is singular
    at that precision; all three are checked before Z is computed.  Returns
    an mpmath float with `precision` significant digits.
    """
    import mpmath

    if precision < 10:
        raise ValueError(f"precision must be >= 10 digits, got {precision}")
    if mq.eta < 0:
        return mpmath.mpf(0)
    n = mq.n
    if mq.box_high + 1 > _GRAM_MAX_SITES:
        raise PrecisionLossError(
            f"Gram box of {mq.box_high + 1} sites exceeds {_GRAM_MAX_SITES} sites"
        )
    with mpmath.workdps(precision + 15):
        moments = _box_moments(mq)
        box = mpmath.matrix([[moments[i + j] for j in range(n)] for i in range(n)])
        try:
            cond = mpmath.mnorm(box, 1) * mpmath.mnorm(mpmath.inverse(box), 1)
        except ZeroDivisionError as exc:  # mpmath.inverse: "matrix is numerically singular"
            raise PrecisionLossError(
                f"Gram matrix is numerically singular at {precision} digits; raise precision"
            ) from exc
        if cond > mpmath.mpf(10) ** (precision - 2):
            raise PrecisionLossError(
                f"Gram condition estimate {mpmath.nstr(cond, 3)} exceeds what "
                f"{precision} digits support; raise precision"
            )
        z = partition_function(mq.q, mq.m, n)
        value = math.factorial(n) * mpmath.det(box) * z.denominator / z.numerator
    with mpmath.workdps(precision):
        return +value


def meixner_poly(q, beta: int, j: int, x: int) -> float:
    """Meixner polynomial value p_j(x) = (beta)_j M_j(x; beta, q), rounded once.

    The polynomials of the weight binom(x+beta-1, x) q^x, normalized by
    p_0 = 1, satisfy the three-term recurrence (Koekoek, Lesky and
    Swarttouw, Hypergeometric Orthogonal Polynomials, 2010, section 9.10)

        q p_{k+1} = ((q-1) x + k + (k+beta) q) p_k - k (k+beta-1) p_{k-1}.

    For q = a/b it runs exactly on the integers P_k = a^k p_k,

        P_{k+1} = ((a-b) x + k b + (k+beta) a) P_k - a b k (k+beta-1) P_{k-1},

    and P_j / a^j is rounded to the nearest float once.  Raises
    PrecisionLossError when that value lies outside the float range.
    """
    if beta < 1:
        raise ValueError(f"weight parameter must be >= 1, got {beta}")
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    qv = GeometricParameter.coerce(q).value
    a, b = qv.numerator, qv.denominator
    prev, cur = 0, 1
    for k in range(j):
        step = ((a - b) * x + k * b + (k + beta) * a) * cur
        prev, cur = cur, step - a * b * k * (k + beta - 1) * prev
    try:
        return cur / a**j
    except OverflowError as exc:
        raise PrecisionLossError(f"Meixner value p_{j}({x}) is outside the float range") from exc
