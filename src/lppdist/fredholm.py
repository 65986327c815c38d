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
doubling, batched so that node evaluations are shared across arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import ContourConfig, GeometricParameter, QuadratureError, circle_nodes
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


def _a_values(spec: KernelSpec, j: int, xs: np.ndarray) -> np.ndarray:
    """a_j at each x in xs by one shared quadrature pass per refinement."""
    qf = float(spec.q)
    jk = j + spec.K - 1
    exps = np.asarray(xs, dtype=np.int64)

    def evaluate(count: int):
        z = circle_nodes(spec.cfg.r2, count)
        rest = (qf * z - 1.0) ** jk / (z - 1.0) ** (j + 1)
        powers = z[None, :] ** exps[:, None]
        values = (qf - 1.0) * np.real(powers @ rest) / count
        scale = spec.cfg.r2 ** exps.astype(float) * float(np.max(np.abs(rest)))
        return values, scale

    return _adaptive_batch(evaluate, spec.cfg.nodes)


def _b_values(spec: KernelSpec, j: int, xs: np.ndarray) -> np.ndarray:
    """b_j at each x in xs by one shared quadrature pass per refinement."""
    qf = float(spec.q)
    jk = j + spec.K
    exps = np.asarray(xs, dtype=np.int64)

    def evaluate(count: int):
        w = circle_nodes(spec.cfg.r1, count)
        rest = (w - 1.0) ** j / (qf * w - 1.0) ** jk
        powers = w[None, :] ** (1 - exps[:, None])
        values = np.real(powers @ rest) / count
        scale = spec.cfg.r1 ** (1.0 - exps.astype(float)) * float(np.max(np.abs(rest)))
        return values, scale

    return _adaptive_batch(evaluate, spec.cfg.nodes)


def a_fn(spec: KernelSpec, j: int, x: int) -> float:
    """Value a_j(x); for x >= 1 it is (q-1)^(j+K)/j! times a degree-j monic
    polynomial in x (at x = 0 the integrand picks up an extra residue at the
    origin, so the polynomial identity starts at 1)."""
    _check_index(spec, j)
    return float(_a_values(spec, j, np.array([x]))[0])


def b_fn(spec: KernelSpec, j: int, x: int) -> float:
    """Value b_j(x); vanishes for x <= 0 and decays at worst like r1^(-x)."""
    _check_index(spec, j)
    return float(_b_values(spec, j, np.array([x]))[0])


def biorthogonal_pairing(spec: KernelSpec, upper: int) -> np.ndarray:
    """Matrix of truncated pairings sum_{y=0}^{upper} a_i(y) b_j(y), shape (n, n).

    Converges entrywise to the identity as upper grows; the truncation error
    decays geometrically because b swallows the polynomial growth of a.
    """
    if upper < 0:
        raise ValueError(f"pairing cutoff must be >= 0, got {upper}")
    ys = np.arange(upper + 1)
    a_rows = np.vstack([_a_values(spec, i, ys) for i in range(spec.n)])
    b_rows = np.vstack([_b_values(spec, j, ys) for j in range(spec.n)])
    return a_rows @ b_rows.T


def cdf_biorth(spec: KernelSpec, eta: int) -> float:
    """P[G(m, n) <= eta] as the determinant of the pairing truncated at eta + n."""
    if eta < 0:
        return 0.0
    return float(np.linalg.det(biorthogonal_pairing(spec, eta + spec.n)))


def _kernel_factors(spec: KernelSpec, z: np.ndarray, w: np.ndarray):
    qf = float(spec.q)
    fz = (1.0 - qf * z) ** spec.m / (1.0 - z) ** spec.n
    gw = (1.0 - w) ** spec.n / (1.0 - qf * w) ** spec.denominator_power
    return fz, gw


def kernel_eval(spec: KernelSpec, x: int, y: int, tol: float = 1e-12) -> float:
    """Kernel entry K(x, y) by the double contour integral.

    Both circle sums share their node evaluations through a rank-one-in-each-
    variable factorization around the Cauchy core w/(w - z), which never
    degenerates since the z-circle lies strictly inside the w-circle.
    """

    def evaluate(count: int):
        z = circle_nodes(spec.cfg.r2, count)
        w = circle_nodes(spec.cfg.r1, count)
        fz, gw = _kernel_factors(spec, z, w)
        core = w[None, :] / (w[None, :] - z[:, None])
        left = fz * z ** (x + spec.n)
        right = gw * w ** (-(y + spec.n))
        value = np.real(left @ core @ right) / count**2
        scale = (
            float(np.max(np.abs(left)))
            * float(np.max(np.abs(core)))
            * float(np.max(np.abs(right)))
        )
        return value, scale

    return float(_adaptive_batch(evaluate, spec.cfg.nodes, tol=tol))


def _kernel_section(spec: KernelSpec, eta: int, size: int) -> np.ndarray:
    """Finite section of the kernel on {eta+1, ..., eta+size}, conjugated.

    The section is similarity-transformed by c^x with c = sqrt(r2 r1), which
    leaves every principal determinant unchanged while turning both power
    factors into decaying ones; without it the raw entries overflow for large
    section sizes.
    """
    c = math.sqrt(spec.cfg.r2 * spec.cfg.r1)
    offs = eta + 1 + np.arange(size) + spec.n
    decay = (spec.cfg.r2 / c) ** offs.astype(float)  # = (c/r1)^offs as well

    def evaluate(count: int):
        z = circle_nodes(spec.cfg.r2, count)
        w = circle_nodes(spec.cfg.r1, count)
        fz, gw = _kernel_factors(spec, z, w)
        core = (fz[:, None] * gw[None, :]) * (w[None, :] / (w[None, :] - z[:, None]))
        left = (z / c)[:, None] ** offs[None, :]
        right = (c / w)[:, None] ** offs[None, :]
        values = np.real(left.T @ core @ right) / count**2
        scale = float(np.max(np.abs(core))) * np.outer(decay, decay)
        return values, scale

    return _adaptive_batch(evaluate, spec.cfg.nodes)


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
    that final increment.  Only the derivation variant is accepted unless
    `allow_printed` is set; the printed variant exists for adjudication runs
    and is known to evaluate to the wrong distribution when m != n.
    """
    if eta < 0:
        raise ValueError(f"threshold must be >= 0, got {eta}")
    if trunc < 1:
        raise ValueError(f"initial section size must be >= 1, got {trunc}")
    if spec.variant != "derivation" and not allow_printed:
        raise ValueError(
            "cdf_fredholm evaluates the validated derivation kernel; "
            "pass allow_printed=True to force the printed variant"
        )
    size = min(trunc, _SECTION_CAP)
    prev: float | None = None
    while True:
        section = _kernel_section(spec, eta, size)
        value = float(np.linalg.det(np.eye(size) - section))
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
