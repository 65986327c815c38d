"""Monte Carlo drawn in chunks against a whole-block draw of the same streams.

The oracle draws each Philox block whole and applies the inverse CDF and the
row-by-row last-passage recursion to the whole block at once.  Philox is
counter-based, so the chunked draw must reproduce its estimates bit for bit,
whatever the chunk boundaries.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lppdist.lpp as lpp
from lppdist import mc_cdf, mc_cdfs, sample_grid


def oracle_mc_cdfs(q, m, n, etas, samples, seed):
    qf = float(q)
    block = lpp._mc_block_size(m, n)
    hits = [0] * len(etas)
    done = 0
    block_index = 0
    while done < samples:
        count = min(block, samples - done)
        bits = np.random.Philox(key=seed)
        if block_index:
            bits = bits.jumped(block_index)
        u = np.random.Generator(bits).random((count, m, n))
        w = np.floor(np.log1p(-u) / math.log(qf)).astype(np.int64)
        g = np.zeros((count, n), dtype=np.int64)
        for i in range(m):
            g[:, 0] += w[:, i, 0]
            for j in range(1, n):
                np.maximum(g[:, j], g[:, j - 1], out=g[:, j])
                g[:, j] += w[:, i, j]
        for k, eta in enumerate(etas):
            hits[k] += int(np.count_nonzero(g[:, n - 1] <= eta))
        done += count
        block_index += 1
    return [(h / samples, math.sqrt(h / samples * (1.0 - h / samples) / samples)) for h in hits]


# Sample counts end mid-chunk and mid-block; every m * n is odd, so no chunk
# of 2^k uniforms holds a whole number of grids.  (21, 33) has blocks of 6052
# grids walked in chunks of 1024, so its last chunk per block is partial.
CASES = [
    (Fraction(1, 3), 3, 3, (0, 2, 5), 1),
    (Fraction(1, 2), 1, 1, (0, 1, 3), 3),
    (Fraction(9, 10), 3, 5, (40, 90, 150), 4097),
    (Fraction(1, 2), 5, 5, (6, 9, 12, 15), 65537),
    (Fraction(1, 3), 7, 3, (2, 5, 8), 100_000),
    (Fraction(9, 10), 1, 3, (10, 27, 60), 150_001),
    (Fraction(1, 2), 21, 33, (45, 55, 65), 7001),
]


@pytest.mark.parametrize("q, m, n, etas, samples", CASES)
def test_estimates_equal_the_whole_block_draw(q, m, n, etas, samples):
    expected = oracle_mc_cdfs(q, m, n, etas, samples, seed=20261018)
    assert mc_cdfs(q, m, n, etas, samples, seed=20261018) == expected
    assert mc_cdf(q, m, n, etas[1], samples, seed=20261018) == expected[1]


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)])
def test_sample_grid_equals_the_direct_inverse_cdf(q):
    u = np.random.Generator(np.random.Philox(key=17)).random((13, 7))
    grid = sample_grid(q, 13, 7, seed=17)
    assert grid.w.dtype == np.int64
    np.testing.assert_array_equal(grid.w, np.floor(np.log1p(-u) / math.log(float(q))).astype(np.int64))


def test_stages_are_looked_up_per_chunk_as_module_attributes(monkeypatch):
    q, m, n, etas, samples = Fraction(1, 2), 3, 3, (2, 4), 150_001
    seen = {"inverse": 0, "kernel": []}
    inverse, kernel = lpp._geometric_from_uniform, lpp._last_passage_final_batch

    def spy_inverse(*args, **kwargs):
        seen["inverse"] += 1
        return inverse(*args, **kwargs)

    def spy_kernel(w):
        seen["kernel"].append(w.shape[0])
        return kernel(w)

    monkeypatch.setattr(lpp, "_geometric_from_uniform", spy_inverse)
    monkeypatch.setattr(lpp, "_last_passage_final_batch", spy_kernel)
    assert mc_cdfs(q, m, n, etas, samples, seed=5) == oracle_mc_cdfs(q, m, n, etas, samples, seed=5)
    blocks = -(-samples // lpp._mc_block_size(m, n))
    assert seen["inverse"] == len(seen["kernel"]) > blocks
    assert sum(seen["kernel"]) == samples
    assert max(seen["kernel"]) * m * n <= lpp._MC_CHUNK_ELEMENTS


def traced_peak(samples):
    tracemalloc.start()
    try:
        mc_cdfs(Fraction(1, 2), 8, 8, [40], samples, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_flat_in_the_sample_count():
    # A whole-block draw of 65536 8x8 grids peaked near 100 MB.
    mc_cdfs(Fraction(1, 2), 8, 8, [40], 10, seed=3)  # first-call allocations
    small, large = traced_peak(10**5), traced_peak(10**6)
    assert large < 4 * 2**20
    assert large <= small + 2**16
