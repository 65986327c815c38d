"""Paths, the import of the package under test, and the independent oracles.

The benchmark measures the package in `src/` of the checkout that holds this
directory.  It never falls back to another copy: if `src/lppdist` is missing
the import fails and the benchmark exits non-zero without a result.

The oracles below are the benchmark's own second routes for references that
the package computes in one way only (kernel entries, transition and joint
probabilities).  They share no code with the route they confirm.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from itertools import product

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
POOL_DIR = os.path.join(BENCH_DIR, "pools")
WORKLOADS = ("exact", "contour", "crosscheck")

# Single-threaded BLAS keeps runs comparable on a shared 2-core machine; it
# has to be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, BLAS_THREADS)


def import_lppdist():
    """Import `lppdist` from this checkout's `src/`, refusing any other copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lppdist
    import lppdist.cli  # the package does not import its front end itself

    where = os.path.dirname(os.path.abspath(lppdist.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"lppdist imported from {where}, not from {SRC}")
    return lppdist


# --------------------------------------------------------------------------
# Kernel entries: exact residues, confirmed by an independent quadrature.


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_pow(base: list, k: int) -> list:
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, base)
    return out


def a_exact(q: Fraction, m: int, n: int, j: int, x: int) -> Fraction:
    """a_j(x) for x >= 1: (q-1) times the residue at z = 1, as a t-series at z = 1 + t."""
    if x < 1:
        raise ValueError("exact a_j is only needed at x >= 1")
    k = m - n + 1
    series = _poly_mul(_poly_pow([Fraction(1), Fraction(1)], x - 1),
                       _poly_pow([q - 1, q], j + k - 1))
    return (q - 1) * (series[j] if j < len(series) else 0)


def b_exact(q: Fraction, m: int, n: int, j: int, y: int) -> Fraction:
    """b_j(y) for y >= 1: coefficient of w^(y-1) in (w-1)^j (qw-1)^-(j+K)."""
    if y < 1:
        raise ValueError("exact b_j is only needed at y >= 1")
    k = m - n + 1
    total = Fraction(0)
    for i in range(min(j, y - 1) + 1):
        r = y - 1 - i
        total += (math.comb(j, i) * (-1) ** (j - i)
                  * (-1) ** (j + k) * math.comb(r + j + k - 1, r) * q**r)
    return total


def kernel_exact(q: Fraction, m: int, n: int, x: int, y: int) -> Fraction:
    """K(x, y) = sum_j a_j(x+n) b_j(y+n), each factor an exact residue."""
    return sum((a_exact(q, m, n, j, x + n) * b_exact(q, m, n, j, y + n) for j in range(n)),
               Fraction(0))


def kernel_quadrature(q: Fraction, m: int, n: int, x: int, y: int, nodes: int = 2048) -> float:
    """K(x, y) by a plain double trapezoid sum of the double-contour formula."""
    import numpy as np

    qf = float(q)
    inv = 1.0 / qf
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    z = inv ** (1.0 / 3.0) * np.exp(1j * theta)
    w = inv ** (2.0 / 3.0) * np.exp(1j * theta)
    fz = z ** (x + n) * (1 - qf * z) ** m / (1 - z) ** n
    gw = w ** (-(y + n)) * (1 - w) ** n / (1 - qf * w) ** m
    core = w[None, :] / (w[None, :] - z[:, None])
    return float((fz @ core @ gw).real) / nodes**2


# --------------------------------------------------------------------------
# Transition and joint probabilities by explicit propagation of the chain.


def _ordered_box(low, high):
    """Weakly increasing tuples v with low <= v <= high componentwise."""
    return [v for v in product(*(range(a, b + 1) for a, b in zip(low, high)))
            if all(s <= t for s, t in zip(v, v[1:]))]


def _step(one_step, q, dist: dict, states: list) -> dict:
    out: dict = {}
    for u, mass in dist.items():
        for v in states:
            if all(b >= a for a, b in zip(u, v)):
                p = one_step(q, u, v)
                if p:
                    out[v] = out.get(v, 0) + mass * p
    return out


def transition_chain(one_step, q, steps: int, x, y) -> Fraction:
    """P[G(l+steps) = y | G(l) = x] summed over every chain path inside [x, y]."""
    states = _ordered_box(x, y)
    dist = {tuple(x): Fraction(1)}
    for _ in range(steps):
        dist = _step(one_step, q, dist, states)
    return dist.get(tuple(y), Fraction(0))


def joint_chain(one_step, q, m: int, n: int, eta1: int, eta2: int) -> Fraction:
    """P[G(m, m) <= eta1, G(n, n) <= eta2] by propagating the n-vector chain."""
    states = _ordered_box((0,) * n, (eta2,) * n)
    dist = {(0,) * n: Fraction(1)}
    for _ in range(m):
        dist = _step(one_step, q, dist, states)
    dist = {v: p for v, p in dist.items() if v[m - 1] <= eta1}
    for _ in range(n - m):
        dist = _step(one_step, q, dist, states)
    return sum(dist.values(), Fraction(0))
