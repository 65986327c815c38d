"""Biorthogonal functions and the contour-integral kernel of the model.

With K = m - n + 1, the pair of function families

    a_j(x) = (q-1)/(2 pi i) oint_{|z|=r2} z^(x-1) (qz-1)^(j+K-1) / (z-1)^(j+1) dz
    b_j(x) = 1/(2 pi i) oint_{|w|=r1} (w-1)^j / (w^x (qw-1)^(j+K)) dw

is biorthogonal on the nonnegative integers, sum_y a_j(y) b_k(y) = delta_jk,
provided 1 < r2 < r1 < 1/q.  The distribution function of G(m, n) is the
n x n determinant of the truncated pairing

    P[G(m, n) <= eta] = det( sum_{y=0}^{eta+n} a_i(y) b_j(y) )_{0 <= i,j < n}

and, equivalently, a Fredholm determinant det(I - K) on l^2({eta+1, ...}) for
the rank-n kernel K(x, y) = sum_j a_j(x+n) b_j(y+n), which has the
double-contour form

    K(x, y) = 1/(2 pi i)^2 oint dz/z oint dw/w  w/(w-z)
              * z^(x+n)/w^(y+n) * (1-qz)^m (1-w)^n / ((1-z)^n (1-qw)^e).

The exponent e in the w-denominator admits two readings; e = m ("derivation")
is the one consistent with the biorthogonal representation and is the only
variant the distribution evaluator accepts by default, while e = n ("printed")
is kept selectable so the adjudication test can document its failure for
m != n.  All quadratures are trapezoidal sums over circles with adaptive node
doubling.  The N nodes of both circles sit at the same angles omega^k, so a
trapezoid sum over one circle is a DFT of the integrand, read at x mod N for
every argument x at once, and the Cauchy core w/(w - z) = 1/(1 - rho
omega^(k-l)), rho = r2/r1, is circulant: the double sum of the kernel is a
geometric series in rho over one DFT of each factor.  No nodes x nodes array
is ever built.  With P the series terms that rho^P leaves above machine
epsilon, a kernel entry costs O(N log N + P) per node count N.  A kernel
section of size s is a product of two Hankel matrices built from two 1-D
sequences of length s + P - 1; it costs O(N log N + s + P) per node count
and O(s^2 + s P) once, to assemble.  The sections decay geometrically along
the diagonal, so `cdf_fredholm` assembles only the leading block that a
trace-norm bound on the factors shows to carry det(I - C) to machine
epsilon (`_section_cut`), and factors that block alone.

The biorth route runs one node loop per family, two per call for every n.
The n integrands of a family are one (n, N/2 + 1) array, built by a
running product along j on the half circle k = 0..N/2: they take conjugate
values at conjugate nodes, so irfft (a) and hfft (b) along the node axis
give the real transforms of the full circle, in O(n N log N) per node
count.  The Fredholm factors stay on the full circle: the section is pinned
to a full-circle oracle at 1e-14, which a half-circle transform of the
factors exceeds by roundoff.  Every route takes its nodes from
`circle_nodes`, which scales one shared table of unit roots per N.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .weights import (ContourConfig, GeometricParameter, PrecisionLossError, QuadratureError,
                      circle_nodes)
# A module attribute, so per-layer tracing (perfbench/spans.py) can rebind the loop used here.
from .weights import adaptive_batch as _adaptive_batch

__all__ = [
    "KernelSpec",
    "VARIANTS",
    "a_fn",
    "b_fn",
    "biorthogonal_pairing",
    "kernel_eval",
    "cdf_biorth",
    "cdf_fredholm",
    "c_matrix",
]

VARIANTS = ("derivation", "printed")

_SECTION_CAP = 2048

#: Bytes of contour transforms kept across calls, over all entries.
_MEMO_BUDGET = 8 * 2**20


class _TransformMemo:
    """Least-recently-used memo of contour transforms, bounded in bytes.

    `get(build, *args)` returns build(*args), a tuple of arrays and floats,
    and keeps it under the key (build, args): a builder reads nothing but its
    arguments, so the key holds exactly the inputs of its arithmetic.  Kept
    arrays are read-only.  The oldest entries are dropped once the kept
    arrays exceed the budget, and an entry larger than the budget is
    returned without being kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, build, *args):
        key = (build, args)
        kept = self._entries.get(key)
        if kept is not None:
            self._entries.move_to_end(key)
            return kept[0]
        entry = build(*args)
        arrays = [part for part in entry if isinstance(part, np.ndarray)]
        for array in arrays:
            array.flags.writeable = False
        size = sum(array.nbytes for array in arrays)
        if size <= self.budget:
            self._entries[key] = entry, size
            self.nbytes += size
            while self.nbytes > self.budget:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.nbytes -= dropped
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


_TRANSFORMS = _TransformMemo(_MEMO_BUDGET)


@dataclass(frozen=True)
class KernelSpec:
    """Model parameters plus contour configuration for the kernel machinery."""

    q: GeometricParameter
    m: int
    n: int
    variant: str = "derivation"
    cfg: ContourConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", GeometricParameter.coerce(self.q))
        if self.n < 1 or self.m < self.n:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.cfg is None:
            object.__setattr__(self, "cfg", ContourConfig.for_q(self.q))
        self.cfg.validate_for(self.q)

    @property
    def K(self) -> int:
        """Offset exponent m - n + 1 appearing in both function families."""
        return self.m - self.n + 1

    @property
    def denominator_power(self) -> int:
        """Exponent of (1 - qw) in the kernel denominator for this variant."""
        return self.m if self.variant == "derivation" else self.n


def _check_index(spec: KernelSpec, j: int) -> None:
    if not 0 <= j < spec.n:
        raise ValueError(f"family index must satisfy 0 <= j < n = {spec.n}, got {j}")


def _radius_power(radius: float, exponent: int) -> float:
    """radius^exponent, or PrecisionLossError when it is not a finite float.

    The trapezoid sums scale their transforms by such powers; past the float
    range every value of the sum, and its stopping rule, would be inf or NaN.
    """
    try:
        return radius**exponent
    except OverflowError:
        raise PrecisionLossError(
            f"radius power {radius}^{exponent} overflows a float"
        ) from None


def _stopping_scale(powers: np.ndarray, row_max: np.ndarray) -> np.ndarray:
    """powers times row_max, the largest |rest_j| of each row, shape (n, 1):
    the summand scale of a batched trapezoid sum, or PrecisionLossError when
    it is not a finite float.

    An infinite scale would let the stopping rule pass whatever the sums are.
    """
    with np.errstate(over="ignore"):
        scale = powers * row_max
    if not np.isfinite(scale).all():
        raise PrecisionLossError("contour summand scale overflows a float")
    return scale


def _family_rows(first: np.ndarray, ratio: np.ndarray, n: int) -> np.ndarray:
    """Rows first * ratio^j for j < n, shape (n, len(first)), by a running product."""
    rows = np.empty((n, first.size), dtype=complex)
    rows[0] = first
    rows[1:] = ratio
    return np.cumprod(rows, axis=0, out=rows)


def _a_family(qf: float, K: int, n: int, r2: float, count: int):
    """irfft of the a-side rows rest_j on count nodes, shape (n, count), and
    the largest |rest_j| of each row, shape (n, 1)."""
    z = circle_nodes(r2, count)[: count // 2 + 1]
    num, den = qf * z - 1.0, z - 1.0
    rest = _family_rows(num ** (K - 1) / den, num / den, n)
    return np.fft.irfft(rest, count, axis=1), np.max(np.abs(rest), axis=1, keepdims=True)


def _b_family(qf: float, K: int, n: int, r1: float, count: int):
    """hfft of the b-side rows rest_j on count nodes, shape (n, count), and
    the largest |rest_j| of each row, shape (n, 1)."""
    w = circle_nodes(r1, count)[: count // 2 + 1]
    num, den = w - 1.0, qf * w - 1.0
    rest = _family_rows(1.0 / den**K, num / den, n)
    return np.fft.hfft(rest, count, axis=1), np.max(np.abs(rest), axis=1, keepdims=True)


def _a_values(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """a_j at each x in xs for every j < n, shape (n, len(xs)), in one node loop.

    On z_k = r2 omega^k the trapezoid sum of z^x rest_j(z) is r2^x times
    ifft(rest_j) at index x mod N, so every x shares the same transform.
    The rows rest_j = (qz-1)^(j+K-1) / (z-1)^(j+1) follow from rest_0 by the
    factor (qz-1)/(z-1).  They take conjugate values at conjugate nodes, so
    they are built on the half circle k = 0..N/2 and transformed by irfft.
    Each row's stopping scale is the largest |rest_j| of its own row, times
    r2^x; PrecisionLossError when that product overflows.
    """
    qf = float(spec.q)
    exps = np.asarray(xs, dtype=np.int64)
    powers = spec.cfg.r2 ** exps.astype(float)

    def evaluate(count: int):
        table, row_max = _TRANSFORMS.get(_a_family, qf, spec.K, spec.n, spec.cfg.r2, count)
        scale = _stopping_scale(powers, row_max)
        return (qf - 1.0) * powers * table[:, exps % count], scale

    return _adaptive_batch(evaluate, spec.cfg.nodes)


def _b_values(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """b_j at each x in xs for every j < n, shape (n, len(xs)), in one node loop.

    On w_l = r1 omega^l the trapezoid sum of w^(1-x) rest_j(w) is r1^(1-x)
    times fft(rest_j)/N at index (x - 1) mod N.  The rows rest_j =
    (w-1)^j / (qw-1)^(j+K) follow from rest_0 by the factor (w-1)/(qw-1),
    on the half circle, and hfft gives the real transform of the full one.
    """
    qf = float(spec.q)
    exps = np.asarray(xs, dtype=np.int64)
    powers = spec.cfg.r1 ** (1.0 - exps.astype(float))

    def evaluate(count: int):
        table, row_max = _TRANSFORMS.get(_b_family, qf, spec.K, spec.n, spec.cfg.r1, count)
        scale = _stopping_scale(powers, row_max)
        return powers * table[:, (exps - 1) % count] / count, scale

    return _adaptive_batch(evaluate, spec.cfg.nodes)


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


def biorthogonal_pairing(spec: KernelSpec, upper: int) -> np.ndarray:
    """Matrix of truncated pairings sum_{y=0}^{upper} a_i(y) b_j(y), shape (n, n).

    Converges entrywise to the identity as upper grows; the truncation error
    decays geometrically because b swallows the polynomial growth of a.
    Raises PrecisionLossError, before any array is built, when r2^upper, the
    largest power the a-side sums are scaled by, is not a finite float, and
    when the a-side summand scale r2^upper max|rest_j| is not.
    """
    if upper < 0:
        raise ValueError(f"pairing cutoff must be >= 0, got {upper}")
    _radius_power(spec.cfg.r2, upper)
    ys = np.arange(upper + 1)
    return _a_values(spec, ys) @ _b_values(spec, ys).T


def cdf_biorth(spec: KernelSpec, eta: int) -> float:
    """P[G(m, n) <= eta] as the determinant of the pairing truncated at eta + n.

    Raises PrecisionLossError when the pairing cannot be scaled in floats or
    its determinant is not finite.
    """
    if eta < 0:
        return 0.0
    pairing = biorthogonal_pairing(spec, eta + spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.linalg.det(pairing))
    if not math.isfinite(value):
        raise PrecisionLossError(
            f"biorthogonal pairing determinant is {value} at n = {spec.n}, eta = {eta}"
        )
    return value


def _series_terms(spec: KernelSpec) -> int:
    """Terms P of the geometric series in rho = r2/r1 that matter.

    P is the first power with rho^P / (1 - rho) below machine epsilon, which
    leaves the tail under the stopping rule's roundoff floor.
    """
    rho = spec.cfg.r2 / spec.cfg.r1
    eps = np.finfo(float).eps
    return math.ceil(math.log(eps * (1.0 - rho)) / math.log(rho))


def _full_circle_factors(qf: float, m: int, n: int, e: int, r2: float, r1: float, count: int):
    """ifft(fz), fft(gw)/N, max|fz| and max|gw| on N = count nodes.

    fz = (1 - qz)^m / (1 - z)^n on z_k = r2 omega^k and
    gw = (1 - w)^n / (1 - qw)^e on w_l = r1 omega^l are the two contour
    factors of the kernel.  Both transforms are real up to roundoff: the
    factors take conjugate values at conjugate nodes.  Every entry of a
    transform is bounded by the largest magnitude of its factor.
    """
    z = circle_nodes(r2, count)
    w = circle_nodes(r1, count)
    fz = (1.0 - qf * z) ** m / (1.0 - z) ** n
    gw = (1.0 - w) ** n / (1.0 - qf * w) ** e
    return (
        # .real alone is a view that keeps the complex array alive in the memo.
        np.fft.ifft(fz).real.copy(),
        np.fft.fft(gw).real / count,
        float(np.max(np.abs(fz))),
        float(np.max(np.abs(gw))),
    )


def _factor_transforms(spec: KernelSpec, count: int):
    """The kernel's full-circle factor transforms (`_full_circle_factors`), from the memo."""
    cfg = spec.cfg
    return _TRANSFORMS.get(_full_circle_factors, float(spec.q), spec.m, spec.n,
                           spec.denominator_power, cfg.r2, cfg.r1, count)


def _cauchy_series(spec: KernelSpec, count: int, u: int, v: int):
    """Trapezoid double sum around the circulant Cauchy core, never forming it.

    With z_k = r2 omega^k, w_l = r1 omega^l and rho = r2/r1, the core is
    w/(w - z) = sum_p rho^p omega^(p(k-l)), so for integer offsets u, v

        1/N^2 sum_{k,l} fz_k z_k^u w_l/(w_l - z_k) gw_l w_l^(-v)
            = r2^u r1^(-v) sum_p rho^p fhat[(u+p) mod N] ghat[(v+p) mod N]

    with fhat = ifft(fz) and ghat = fft(gw)/N, and the series folds to its
    first N terms over 1 - rho^N.  Returns the series, without the radius
    powers, and max|fz| max|gw| / (1 - rho), a bound on every summand
    without those powers.  The series stops after `_series_terms` terms or
    at P = N.
    """
    fhat, ghat, fmax, gmax = _factor_transforms(spec, count)
    rho = spec.cfg.r2 / spec.cfg.r1
    p = np.arange(min(count, _series_terms(spec)))
    series = (fhat[(u + p) % count] * rho**p) @ ghat[(v + p) % count]
    return series / (1.0 - rho**count), fmax * gmax / (1.0 - rho)


def kernel_eval(spec: KernelSpec, x: int, y: int) -> float:
    """Kernel entry K(x, y) by the double contour integral.

    Both circles share the angles omega^k, so the Cauchy core w/(w - z) is
    circulant and the double trapezoid sum is a geometric series over one DFT
    of each factor (`_cauchy_series`): O(N log N) per node count N.
    """
    u, v = x + spec.n, y + spec.n
    powers = _radius_power(spec.cfg.r2, u) * _radius_power(spec.cfg.r1, -v)

    def evaluate(count: int):
        series, bound = _cauchy_series(spec, count, u, v)
        return powers * float(series), powers * bound

    return float(_adaptive_batch(evaluate, spec.cfg.nodes))


def _reach(seq: np.ndarray, size: int) -> np.ndarray:
    """max |seq[v]| over v > k - size, for every index k of seq.

    In a section of size `size`, F(o_0 + k) is multiplied only by
    G(o_0 + v) with v > k - size, and the other way round.
    """
    tail = np.maximum.accumulate(np.abs(seq)[::-1])[::-1]
    return tail[np.maximum(np.arange(seq.size) - (size - 1), 0)]


def _section_factors(spec: KernelSpec, eta: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor sequences f, g of the conjugated section on {eta+1, ..., eta+size}.

    The section is similarity-transformed by c^x with c = sqrt(r2 r1), which
    leaves every principal determinant unchanged while turning both power
    factors into decaying ones; without it the raw entries overflow for large
    section sizes.  With o_i = eta + 1 + n + i, the conjugated section is

        C[i, j] = sum_{t >= 0} F(o_i + t) G(o_j + t),
        F(u) = rho^(u/2) ifft(fz)[u mod N],  G(u) = rho^(u/2) fft(gw)[u mod N] / N,

    the series of `_cauchy_series` on the periodic continuation instead of
    folded over 1 - rho^N.  Returns f[t] = F(o_0 + t) and g[t] = G(o_0 + t)
    over the window t < size - 1 + P, P = `_series_terms`; past the window
    both are taken as zero, so C = H_f H_g^T with H_f[i, t] = f[i + t].

    The node doubling runs on the two 1-D sequences; their length does not
    change between refinements.  An error in F(u) reaches the section only
    through products with G(v), v > u - size, so the stopping rule sees each
    F(u) times the largest such |G(v)| (`_reach`), and G the same way.
    Without that weight the far tail of one factor, which wraps around the
    N nodes until N covers the window, holds the doubling back although its
    products with the other factor are negligible.  The cost is
    O(N log N + size + P) per node count N.
    """
    c = math.sqrt(spec.cfg.r2 * spec.cfg.r1)
    length = size - 1 + _series_terms(spec)
    us = eta + 1 + spec.n + np.arange(length)
    decay = (spec.cfg.r2 / c) ** us.astype(float)  # = rho^(u/2) = (c/r1)^u

    factors = {}

    def evaluate(count: int):
        fhat, ghat, fmax, gmax = _factor_transforms(spec, count)
        at = us % count
        f = factors["f"] = decay * fhat[at]
        g = factors["g"] = decay * ghat[at]
        f_weight, g_weight = _reach(g, size), _reach(f, size)
        values = np.concatenate([f * f_weight, g * g_weight])
        return values, np.concatenate([decay * fmax * f_weight, decay * gmax * g_weight])

    _adaptive_batch(evaluate, spec.cfg.nodes)
    return factors["f"], factors["g"]


def _hankel_tail_norms(seq: np.ndarray, size: int) -> np.ndarray:
    """Frobenius norms of the trailing rows of H[i, t] = seq[i + t], i < size.

    Returns T with T[k] = (sum_{k <= i < size} ||seq[i:]||^2)^(1/2) for
    k = 0..size, so T[size] = 0.  The sequence is divided by max|seq| before
    squaring and the norms multiplied back after the square root, so no
    square overflows or underflows, and the sums run from the far end,
    smallest terms first.
    """
    top = float(np.max(np.abs(seq))) or 1.0
    rows = np.cumsum(((seq / top) ** 2)[::-1])[::-1][:size]
    tails = np.zeros(size + 1)
    tails[:size] = np.cumsum(rows[::-1])[::-1]
    return top * np.sqrt(tails)


def _section_cut(f: np.ndarray, g: np.ndarray, size: int) -> int:
    """Size k <= size of the leading block of C = H_f H_g^T that carries det(I - C).

    With A_k and B_k the norms of rows k..size-1 of H_f and H_g
    (`_hankel_tail_norms`) and tau = A_0 B_0, a bound on the trace norm of C:

    - tau < 1: the first k with A_k B_k / (1 - tau) <= eps.  The Schur
      complement of the leading block C_k is I - E with E = C22 + C21 (I -
      C_k)^-1 C12, and trace-norm Holder with ||(I - C_k)^-1|| <= 1/(1 - tau)
      gives ||E||_1 <= A_k B_k / (1 - tau), so
      |det(I - C) / det(I - C_k) - 1| <= exp(eps) - 1.
    - otherwise: the first k with A_0 B_k + A_k B_0 + A_k B_k <= eps, which
      bounds the trace norm of the dropped rows and columns; dropping them
      perturbs I - C by less than the backward error of its LU.

    eps is machine epsilon.  The bound multiplies a norm of f by a norm of
    g and divides by nothing, so factors of opposite extreme sizes keep
    their product, and a product below the smallest float rounds to 0,
    which is under eps as the true value is.  k is at least 1.
    """
    a = _hankel_tail_norms(f, size)
    b = _hankel_tail_norms(g, size)
    tau = float(a[0] * b[0])
    eps = float(np.finfo(float).eps)
    if tau < 1.0:
        bound, allowed = a * b, eps * (1.0 - tau)
    else:
        bound, allowed = a[0] * b + a * b[0] + a * b, eps
    return max(1, int(np.argmax(bound <= allowed)))


def _kernel_section(spec: KernelSpec, eta: int, size: int, *, cut: bool = False) -> np.ndarray:
    """Finite section of the kernel on {eta+1, ..., eta+size}, conjugated.

    The section C = H_f H_g^T comes from the factor sequences of
    `_section_factors`; it is a product of two Hankel matrices, with
    displacement rank one: C[i, j] = F(o_i) G(o_j) + C[i+1, j+1].  With
    `cut`, only its leading k x k block is built, k from `_section_cut`, the
    part that carries det(I - C) to machine epsilon; otherwise k = size.
    The block is assembled once: its last row and column are correlations
    over the rest of the window, and the rest follows backward by the
    recurrence, so every entry sums the whole window and every index stays
    inside it.

    The cost is O(N log N + size + P) per node count N plus O(k^2 +
    k (size - k + P)) once; no size x P or N x N array is built.
    """
    f, g = _section_factors(spec, eta, size)
    k = _section_cut(f, g, size) if cut else size
    block = np.empty((k, k))
    block[-1] = np.correlate(g, f[k - 1:], "valid")
    block[:, -1] = np.correlate(f, g[k - 1:], "valid")
    for i in range(k - 2, -1, -1):
        block[i, :-1] = f[i] * g[: k - 1] + block[i + 1, 1:]
    return block


def cdf_fredholm(
    spec: KernelSpec,
    eta: int,
    trunc: int = 16,
    *,
    allow_printed: bool = False,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """P[G(m, n) <= eta] as a finite-section Fredholm determinant det(I - K).

    Doubles the section size starting from `trunc` until two successive
    determinants differ by less than tol, returning the value together with
    that final increment.  At each size the determinant is taken, in place,
    on the leading k x k block only, k <= size from `_section_cut`: with
    C = H_f H_g^T and A_k, B_k the norms of the Hankel rows past k, the rows
    and columns past k change det(I - C) by a relative exp(A_k B_k /
    (1 - tau)) - 1 when tau = A_0 B_0 < 1, and otherwise perturb I - C by at
    most A_0 B_k + A_k B_0 + A_k B_k; either is at most machine epsilon.  At
    (9/10, 3, 2, 41) the sizes 512 and 1024 both cut at 409.  `trunc` must
    lie below the section cap `_SECTION_CAP`, so that doubling always
    reaches a second size to compare with the first.  Only the derivation
    variant is accepted unless `allow_printed` is set; the printed variant
    exists for adjudication runs and is known to evaluate to the wrong
    distribution when m != n.
    """
    if eta < 0:
        raise ValueError(f"threshold must be >= 0, got {eta}")
    if not 1 <= trunc < _SECTION_CAP:
        raise ValueError(
            f"initial section size must be in [1, {_SECTION_CAP - 1}], got {trunc}"
        )
    if spec.variant != "derivation" and not allow_printed:
        raise ValueError(
            "cdf_fredholm evaluates the validated derivation kernel; "
            "pass allow_printed=True to force the printed variant"
        )
    size = trunc
    prev: float | None = None
    while True:
        block = _kernel_section(spec, eta, size, cut=True)
        np.negative(block, out=block)
        block.flat[:: block.shape[0] + 1] += 1.0
        value = float(np.linalg.det(block))
        if prev is not None and abs(value - prev) < tol:
            return value, value - prev
        if size >= _SECTION_CAP:
            raise QuadratureError(
                f"Fredholm section did not stabilize to {tol} within size {_SECTION_CAP}"
            )
        prev = value
        size = min(2 * size, _SECTION_CAP)


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
