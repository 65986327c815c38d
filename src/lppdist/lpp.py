"""Simulation and exact dynamic programming for directed last-passage times.

G(i, j) is the maximal total weight of an up/right lattice path from (1, 1) to
(i, j) through i.i.d. geometric(q) site weights, satisfying

    G(i, j) = max(G(i-1, j), G(i, j-1)) + w(i, j),    G = 0 off the grid.

The vector (G(i, 1), ..., G(i, n)) is a Markov chain on weakly increasing
integer n-tuples; its one-step transition probability factorizes into a
product of geometric weights.  This module houses the Monte Carlo estimator,
the product-form transition, and the exact rational distribution obtained by
propagating that transition over a truncated state space.  Everything here is
independent of the determinantal machinery in the sibling modules, which is
what makes it usable as an oracle for them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .weights import GeometricParameter, geometric_pmf

__all__ = [
    "OrderedVector",
    "WeightGrid",
    "StateSpaceError",
    "MAX_STATES_ENV",
    "DEFAULT_MAX_STATES",
    "check_state_cap",
    "sample_grid",
    "last_passage",
    "mc_cdf",
    "mc_cdfs",
    "one_step_transition",
    "exact_cdf_dp",
]

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


@dataclass(frozen=True)
class WeightGrid:
    """An m x n array of nonnegative integer site weights (rows i, columns j)."""

    w: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.w)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"weight grid must be a nonempty 2-d array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"weights must be integers, got dtype {arr.dtype}")
        if (arr < 0).any():
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "w", arr)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]


def _geometric_from_uniform(u: np.ndarray, qf: float) -> np.ndarray:
    # Inverse CDF: P[k >= j] = q^j, so k = floor(log(1-u) / log q) for u ~ U[0,1).
    return np.floor(np.log1p(-u) / math.log(qf)).astype(np.int64)


def _philox(seed: int, jumps: int = 0) -> np.random.Generator:
    bits = np.random.Philox(key=seed)
    if jumps:
        bits = bits.jumped(jumps)
    return np.random.Generator(bits)


def sample_grid(q, m: int, n: int, seed: int) -> WeightGrid:
    """One i.i.d. geometric(q) weight grid from a counter-based stream.

    The Philox generator is keyed by the seed alone, so equal seeds give
    identical grids on any platform.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be >= 1, got m={m}, n={n}")
    qf = float(GeometricParameter.coerce(q))
    u = _philox(seed).random((m, n))
    return WeightGrid(_geometric_from_uniform(u, qf))


def last_passage(grid: WeightGrid | np.ndarray) -> np.ndarray:
    """Full table of last-passage times G(i, j) for one weight grid.

    Entry [i-1, j-1] of the result is G(i, j).
    """
    if not isinstance(grid, WeightGrid):
        grid = WeightGrid(np.asarray(grid))
    w = grid.w
    g = np.zeros_like(w)
    for i in range(grid.m):
        for j in range(grid.n):
            up = g[i - 1, j] if i else 0
            left = g[i, j - 1] if j else 0
            g[i, j] = max(up, left) + w[i, j]
    return g


def _last_passage_final_batch(w: np.ndarray) -> np.ndarray:
    """G(m, n) per sample for a stack of grids, shape (batch, m, n)."""
    batch, m, n = w.shape
    g = np.zeros((batch, n), dtype=np.int64)
    for i in range(m):
        g[:, 0] += w[:, i, 0]
        for j in range(1, n):
            np.maximum(g[:, j], g[:, j - 1], out=g[:, j])
            g[:, j] += w[:, i, j]
    return g[:, n - 1]


_MC_BLOCK_SAMPLES = 1 << 16
_MC_BLOCK_ELEMENT_CAP = 1 << 22


def _mc_block_size(m: int, n: int) -> int:
    """Samples per counter stream; a pure function of the grid shape."""
    return max(1, min(_MC_BLOCK_SAMPLES, _MC_BLOCK_ELEMENT_CAP // (m * n)))


def mc_cdfs(
    q, m: int, n: int, etas: Sequence[int], samples: int, seed: int
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of P[G(m, n) <= eta], with standard errors, per eta in etas.

    Every threshold is counted on the same samples.  Block j of the sample
    index range is always drawn from Philox stream j (block size is a fixed
    function of the grid shape), and the reduction is an integer hit count
    per threshold, so each estimate is deterministic in the arguments and
    equals the one-threshold `mc_cdf` result.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be >= 1, got m={m}, n={n}")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    qf = float(GeometricParameter.coerce(q))
    block = _mc_block_size(m, n)
    hits = [0] * len(etas)
    done = 0
    block_index = 0
    while done < samples:
        count = min(block, samples - done)
        u = _philox(seed, jumps=block_index).random((count, m, n))
        g = _last_passage_final_batch(_geometric_from_uniform(u, qf))
        for k, eta in enumerate(etas):
            hits[k] += int(np.count_nonzero(g <= eta))
        done += count
        block_index += 1
    estimates = [h / samples for h in hits]
    return [(p, math.sqrt(p * (1.0 - p) / samples)) for p in estimates]


def mc_cdf(q, m: int, n: int, eta: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P[G(m, n) <= eta] with its standard error (see `mc_cdfs`)."""
    return mc_cdfs(q, m, n, (eta,), samples, seed)[0]


def one_step_transition(q, x: OrderedVector | Sequence[int], y: OrderedVector | Sequence[int]) -> Fraction:
    """Exact one-step transition probability of the coupled chain.

    P[G(i+1) = y | G(i) = x] = prod_k (1-q) q^(y_k - max(x_k, y_{k-1})) with
    y_0 = 0, and zero whenever some gap y_k - max(x_k, y_{k-1}) is negative.
    """
    qp = GeometricParameter.coerce(q)
    xv = OrderedVector.coerce(x)
    yv = OrderedVector.coerce(y)
    if len(xv) != len(yv):
        raise ValueError(f"state dimensions differ: {len(xv)} vs {len(yv)}")
    prob = Fraction(1)
    prev = 0
    for xk, yk in zip(xv, yv):
        gap = yk - max(xk, prev)
        if gap < 0:
            return Fraction(0)
        prob *= geometric_pmf(qp, gap)
        prev = yk
    return prob


@lru_cache(maxsize=None)
def _transition_table(
    q: GeometricParameter, n: int, eta: int, cap: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """States of the box-truncated chain and, per state, its outgoing row.

    States are the weakly increasing n-tuples with entries in [0, eta], in
    lexicographic order.  A row lists (target index, weight), the weight
    being the transition probability times b^(n(eta+1)) for q = a/b, which is
    an integer.  Transitions leaving the box are dropped: once any coordinate
    exceeds eta it can never return, so the dropped mass is exactly the
    probability of the complement event.  The entry cap is part of the cache
    key, so a table built under a higher cap is never served under a lower one.
    """
    states = tuple(combinations_with_replacement(range(eta + 1), n))
    index = {s: i for i, s in enumerate(states)}
    a, b = q.value.numerator, q.value.denominator
    # (1-q)^n q^e = (b-a)^n a^e / b^(n+e); e <= n*eta inside the box.
    powers = [(b - a) ** n * a**e * b ** (n * eta - e) for e in range(n * eta + 1)]
    entries = 0

    rows: list[tuple[tuple[int, int], ...]] = []
    for x in states:
        row: list[tuple[int, int]] = []
        y = [0] * n

        def extend(k: int, prev: int, esum: int) -> None:
            if k == n:
                row.append((index[tuple(y)], powers[esum]))
                return
            low = max(x[k], prev)
            for yk in range(low, eta + 1):
                y[k] = yk
                extend(k + 1, yk, esum + yk - low)

        extend(0, 0, 0)
        entries += len(row)
        check_state_cap(entries, f"DP table entries for n={n}, eta={eta}", cap)
        rows.append(tuple(row))
    return states, tuple(rows)


def exact_cdf_dp(q, m: int, n: int, eta: int) -> Fraction:
    """Exact P[G(m, n) <= eta] by m-fold propagation of the coupled chain.

    The chain starts from the zero vector and runs m steps inside the box
    [0, eta]^n; the answer is the surviving mass.  The state count is
    binom(eta + n, n); it and the transition table entry count must stay at
    or below the cap from the MEIXNER_MAX_STATES environment variable
    (default 5e6).
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be >= 1, got m={m}, n={n}")
    if eta < 0:
        return Fraction(0)
    qp = GeometricParameter.coerce(q)
    cap = _state_cap()
    check_state_cap(math.comb(eta + n, n), f"DP states for n={n}, eta={eta}", cap)
    states, rows = _transition_table(qp, n, eta, cap)
    # Integer masses over the common denominator b^(n(eta+1)) per step.
    dist = [0] * len(states)
    dist[0] = 1  # lexicographically first state is the zero vector
    for _ in range(m):
        nxt = [0] * len(states)
        for i, mass in enumerate(dist):
            if mass:
                for j, weight in rows[i]:
                    nxt[j] += mass * weight
        dist = nxt
    return Fraction(sum(dist), qp.value.denominator ** (n * (eta + 1) * m))
