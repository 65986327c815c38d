"""Simulation and exact dynamic programming for directed last-passage times.

G(i, j) is the maximal total weight of an up/right lattice path from (1, 1) to
(i, j) through i.i.d. geometric(q) site weights, satisfying

    G(i, j) = max(G(i-1, j), G(i, j-1)) + w(i, j),    G = 0 off the grid.

The vector (G(i, 1), ..., G(i, n)) is a Markov chain on weakly increasing
integer n-tuples; its one-step transition probability factorizes into a
product of geometric weights.  This module houses the Monte Carlo estimator,
the product-form transition, and the exact rational distribution obtained by
propagating that transition over a truncated state space.  The propagation
uses the product form: a step is a sweep over the n columns, each a fold of
the integer masses onto max(y_{k-1}, x_k) and a geometric recurrence along
y_k, so no state's outgoing row is ever built.  The MEIXNER_MAX_STATES cap
of `weights` bounds the number of entries those rows would hold, which
neither the state count nor any layer of the sweep exceeds, and the cells of
one Monte Carlo grid.  Everything here is independent of the determinantal
machinery in the sibling modules, which is what makes it usable as an oracle
for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .weights import (GeometricParameter, OrderedVector, StateSpaceError, _state_cap,
                      check_state_cap, geometric_pmf)

__all__ = [
    "WeightGrid",
    "sample_grid",
    "last_passage",
    "mc_cdf",
    "mc_cdfs",
    "one_step_transition",
    "exact_cdf_dp",
]


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


def _geometric_from_uniform(u: np.ndarray, qf: float, out: np.ndarray) -> np.ndarray:
    """Geometric(q) weights from uniforms u in [0, 1), written into the int64
    array `out` of u's shape; u is overwritten.

    Inverse CDF: P[k >= j] = q^j, so k = floor(log(1-u) / log q).
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, math.log(qf), out=u)
    np.floor(u, out=u)
    np.copyto(out, u, casting="unsafe")
    return out


def _philox(seed: int, jumps: int = 0) -> np.random.Generator:
    bits = np.random.Philox(key=seed)
    if jumps:
        bits = bits.jumped(jumps)
    return np.random.Generator(bits)


def sample_grid(q, m: int, n: int, seed: int) -> WeightGrid:
    """One i.i.d. geometric(q) weight grid from a counter-based stream.

    The Philox generator is keyed by the seed alone, so equal seeds give
    identical grids on any platform.  The m n cells are charged to the state
    cap before the grid is allocated.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be >= 1, got m={m}, n={n}")
    qf = float(GeometricParameter.coerce(q))
    check_state_cap(m * n, f"Monte Carlo grid cells for m={m}, n={n}")
    u = _philox(seed).random((m, n))
    return WeightGrid(_geometric_from_uniform(u, qf, np.empty((m, n), dtype=np.int64)))


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
    g = np.zeros((n, batch), dtype=np.int64)
    for i in range(m):
        g[0] += w[:, i, 0]
        for j in range(1, n):
            np.maximum(g[j], g[j - 1], out=g[j])
            g[j] += w[:, i, j]
    return g[n - 1]


_MC_BLOCK_SAMPLES = 1 << 16
_MC_BLOCK_ELEMENT_CAP = 1 << 22
#: Uniforms per chunk: each block's stream is drawn and reduced this many at a
#: time, on buffers allocated once per call, so the working set stays in cache.
_MC_CHUNK_ELEMENTS = 1 << 16
#: Fewest samples per chunk: the kernel runs 2 m n array operations per chunk,
#: which on large grids cost more per call than per element below this.
_MC_CHUNK_MIN_SAMPLES = 1 << 10


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

    Each block's stream is drawn and reduced in consecutive chunks of at
    most `_MC_CHUNK_ELEMENTS` uniforms (or `_MC_CHUNK_MIN_SAMPLES` grids,
    when one grid is large).  Philox is counter-based, so the chunks hold
    exactly the uniforms a whole-block draw would, and the estimates are
    the same bits whatever the chunk size.  Every chunk reuses two buffers
    allocated once per call, so memory does not grow with `samples`.  The
    m n cells of one grid are charged to the state cap before any buffer is
    allocated.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be >= 1, got m={m}, n={n}")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    qf = float(GeometricParameter.coerce(q))
    cells = m * n
    check_state_cap(cells, f"Monte Carlo grid cells for m={m}, n={n}")
    block = _mc_block_size(m, n)
    chunk = min(samples, block, max(_MC_CHUNK_MIN_SAMPLES, _MC_CHUNK_ELEMENTS // cells))
    uniforms = np.empty(chunk * cells)
    weights = np.empty(chunk * cells, dtype=np.int64)
    hits = [0] * len(etas)
    for start in range(0, samples, block):
        gen = _philox(seed, jumps=start // block)
        stop = min(start + block, samples)
        for low in range(start, stop, chunk):
            size = min(chunk, stop - low) * cells
            u = gen.random(out=uniforms[:size]).reshape(-1, m, n)
            w = _geometric_from_uniform(u, qf, weights[:size].reshape(-1, m, n))
            g = _last_passage_final_batch(w)
            for k, eta in enumerate(etas):
                hits[k] += int(np.count_nonzero(g <= eta))
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


def _binomials(tops: np.ndarray, k: int) -> np.ndarray:
    """binom(t, k) for each t in `tops`, as int64."""
    return np.array([math.comb(int(t), k) for t in tops], dtype=np.int64)


def _last_entries(j: int, eta: int) -> np.ndarray:
    """Last entry of each weakly increasing j-tuple over [0, eta], by colex rank.

    The colex rank of c_1 <= ... <= c_j is the sum over i of
    binom(c_i + i - 1, i), a bijection onto [0, binom(eta + j, j)); the
    tuples ending in c hold the binom(c + j - 1, j - 1) ranks from
    binom(c + j - 1, j) on.  The empty tuple (j = 0) is given last entry 0.
    """
    if j == 0:
        return np.zeros(1, dtype=np.int64)
    values = np.arange(eta + 1, dtype=np.int64)
    return np.repeat(values, _binomials(values + j - 1, j - 1))


def _segments(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gather order, run starts and target cells that sum `source` cells into `target` cells."""
    order = np.argsort(target, kind="stable")
    ordered = target[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    arrays = tuple(a.astype(np.int32) for a in (source[order], starts, ordered[starts]))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _table_entries(n: int, eta: int) -> int:
    """Entries of the whole-row transition table that the DP is charged.

    A state x of the box-truncated chain reaches exactly the weakly
    increasing y >= x inside [0, eta]^n, so the entries are the pairs x <= y,
    binom(eta+n, n) binom(eta+n+1, n) / (n+1) of them (MacMahon's count of
    plane partitions in a 2 x n x eta box).  Each state pairs with itself,
    so the count is at least the binom(eta+n, n) states.
    """
    return math.comb(eta + n, n) * math.comb(eta + n + 1, n) // (n + 1)


def _sweep_columns(n: int, eta: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Fold plan of each column of one box-truncated chain step, k = 1..n in turn.

    A step updates the columns k = 1..n in turn, y_k = max(y_{k-1}, x_k) + w_k.
    Column k first folds the state (y_1..y_{k-1}, x_k..x_n) into the layer
    whose rows are (y_1..y_{k-1}, x_{k+1}..x_n) and whose cells are
    t = max(y_{k-1}, x_k) in [0, eta], with t = x_1 for k = 1; the geometric
    jump then spreads cell t over the cells z >= t of its row.  After column
    n the rows are (y_1..y_{n-1}) and the cells y_n.  Column k yields
    (rows, gather, starts, targets): the row count of its layer, the flat
    cells of the previous layer in gather order, the starts of the runs that
    share a target, and their flat target cells.

    A row index is the colex rank of its prefix (see `_last_entries`) times
    the number of suffixes plus the rank of its suffix, the suffix
    x_{k+1} <= ... <= x_n being ranked as eta - x_n <= ... <= eta - x_{k+1}.
    Appending an entry to a prefix, or dropping the first entry of a suffix,
    moves its rank by one binomial, so the folds are computed on ranks.  Each
    key is below the cell count of its layer and is stored as int32.
    """
    span = eta + 1
    suffixes = [math.comb(eta + n - k, n - k) for k in range(1, n + 1)]
    rows = [math.comb(eta + k - 1, k - 1) * suffixes[k - 1] for k in range(1, n + 1)]
    z = np.arange(span, dtype=np.int64)

    # Column 1 reads the rows x_1..x_{n-1} and cells x_n.  Its target row is
    # the suffix rank of x_2..x_n: binom(eta - x_i + n - i, n + 1 - i) summed
    # over i >= 2, the i = n term being eta - x_n.
    first = last = suffix_rank = np.zeros(1, dtype=np.int64)
    for i in range(1, n):
        last = _last_entries(i, eta)
        take = np.arange(len(last)) - _binomials(z + i - 1, i)[last]  # rank of x_1..x_{i-1}
        first = last if i == 1 else first[take]
        suffix_rank = suffix_rank[take]
        if i > 1:
            suffix_rank = suffix_rank + _binomials(eta - z + n - i, n + 1 - i)[last]
    p, cell = np.nonzero(z >= last[:, None])
    if n == 1:
        target = cell
    else:
        target = (suffix_rank[p] + eta - cell) * span + first[p]
    yield (rows[0], *_segments(p * span + cell, target))

    for k in range(2, n + 1):
        # Rows (y_1..y_{k-2}, x_k..x_n) and cells y_{k-1}.
        prefix_last = _last_entries(k - 2, eta)
        flipped = _last_entries(n - k + 1, eta)  # eta - x_k
        p, s, cell = np.nonzero(np.broadcast_to(
            (z >= prefix_last[:, None])[:, None, :], (len(prefix_last), len(flipped), span)))
        row = ((p + _binomials(z + k - 2, k - 1)[cell]) * suffixes[k - 1]
               + s - _binomials(z + n - k, n - k + 1)[flipped[s]])
        target = row * span + np.maximum(cell, eta - flipped[s])
        source = (p * len(flipped) + s) * span + cell
        yield (rows[k - 1], *_segments(source, target))


# A kept plan has at most 12 bytes of index arrays per sweep cell, and at
# most `cap` cells, 30 MB at most under the default cap (measured at its
# largest, n = 245, eta = 1), so the 20 cached plans retain at most about
# 600 MB.  The plan does not depend on q, so the benchmark's exact pool,
# seven DP shapes under 16 values of q each, keeps all of them.
@lru_cache(maxsize=20)
def _transition_table(
    n: int, eta: int, cap: int
) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...] | None:
    """Plan of one box-truncated chain step, for `exact_cdf_dp`.

    The plan holds the `_sweep_columns` of the step, or is None when their
    cells over all n layers, (eta+1) binom(2 eta+n, n-1) by Chu-Vandermonde,
    exceed `cap`; such a plan is rebuilt column by column in each step and
    never kept whole.  That happens only with many columns and small eta.
    The plan depends on the shape (n, eta) alone and serves every q.

    The plan is charged its whole-row table entries (`_table_entries`), the
    only check of the DP against the cap: they bound the states, and no
    layer exceeds them (checked for n <= 400 at eta <= 200, or eta < 40
    from n = 100 on), so every int32 key is exact below a cap of 2^31; a
    plan whose largest layer has 2^31 cells or more is refused.  The cap is
    part of the cache key, so a plan built under one cap is never served
    under another.
    """
    check_state_cap(_table_entries(n, eta), f"DP table entries for n={n}, eta={eta}", cap)
    span = eta + 1
    layer = span * max(math.comb(eta + k - 1, k - 1) * math.comb(eta + n - k, n - k)
                       for k in range(1, n + 1))
    if layer >= 2**31:
        raise StateSpaceError(f"DP sweep layer for n={n}, eta={eta} has {layer} cells, beyond int32 keys")
    cells = span * math.comb(2 * eta + n, n - 1)
    return tuple(_sweep_columns(n, eta)) if cells <= cap else None


def exact_cdf_dp(q, m: int, n: int, eta: int) -> Fraction:
    """Exact P[G(m, n) <= eta] by m-fold propagation of the coupled chain.

    The chain starts from the zero vector and runs m steps inside the box
    [0, eta]^n; the answer is the surviving mass.  Each step is a sweep over
    the n columns (see `_transition_table`): the mass is folded onto
    t = max(y_{k-1}, x_k), and the geometric jump runs as the recurrence
    T[z] = a T[z-1] + b^z A[z], scaled by (b-a) b^(eta-z), for q = a/b.
    Masses are integers over b^(eta+1) per column, so the answer is one
    division at the end; the plan is cached per shape, and only b^z and
    (b-a) b^(eta-z) are built per call.  Dropping the mass above eta is
    exact, because once a coordinate exceeds eta, G(m, n) does.  The
    entries of the whole-row transition table, which the sweep never builds
    (see `_table_entries`), must stay at or below the cap from the
    MEIXNER_MAX_STATES environment variable (default 5e6); they are at least
    the binom(eta+n, n) states.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be >= 1, got m={m}, n={n}")
    if eta < 0:
        return Fraction(0)
    qp = GeometricParameter.coerce(q)
    columns = _transition_table(n, eta, _state_cap())
    a, b, span = qp.value.numerator, qp.value.denominator, eta + 1
    jump = np.array([b**t for t in range(span)], dtype=object)
    scale = np.array([(b - a) * b ** (eta - t) for t in range(span)], dtype=object)
    layer = np.zeros(math.comb(eta + n - 1, n - 1) * span, dtype=object)  # as after column n
    layer[0] = 1  # the zero vector: rank-0 prefix, y_n = 0
    for _ in range(m):
        for rows, gather, starts, targets in columns or _sweep_columns(n, eta):
            folded = np.zeros(rows * span, dtype=object)
            folded[targets] = np.add.reduceat(layer[gather], starts)
            grid = folded.reshape(rows, span)
            grid *= jump
            for t in range(1, span):
                grid[:, t] += a * grid[:, t - 1]
            grid *= scale
            layer = folded
    return Fraction(int(layer.sum()), b ** (span * n * m))
