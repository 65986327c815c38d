"""Simulation and exact chain propagation against independent oracles.

Oracles: explicit monotone-path enumeration for the last-passage recursion,
closed forms for the 1 x n and 2 x 2 distributions, and frequency counts for
the sampler.  None of them touch the package's recursion or its transition
table.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import Q_CANON
from lppdist import (
    MAX_STATES_ENV,
    OrderedVector,
    StateSpaceError,
    WeightGrid,
    exact_cdf_dp,
    geometric_pmf,
    last_passage,
    mc_cdf,
    mc_cdfs,
    neg_binomial,
    one_step_transition,
    sample_grid,
)
from lppdist.lpp import _last_passage_final_batch, _mc_block_size


def last_passage_paths(w):
    """G(m, n) by brute enumeration of all up/right paths."""
    m, n = w.shape
    best = None
    # A path is a choice of which of the m+n-2 unit steps go down.
    for downs in combinations(range(m + n - 2), m - 1):
        i = j = 0
        total = w[0, 0]
        for step in range(m + n - 2):
            if step in downs:
                i += 1
            else:
                j += 1
            total += w[i, j]
        best = total if best is None else max(best, total)
    return int(best)


def cdf_one_row(q, m, eta):
    """P[G(m, 1) <= eta]: the single path sums m independent geometrics."""
    return sum(neg_binomial(q, m, s) for s in range(eta + 1))


def cdf_two_by_two(q, eta):
    """P[G(2, 2) <= eta] from G = w11 + w22 + max(w12, w21)."""
    total = Fraction(0)
    for a in range(eta + 1):
        for c in range(eta + 1 - a):
            r = eta - a - c
            max_cdf = (1 - q ** (r + 1)) ** 2
            total += geometric_pmf(q, a) * geometric_pmf(q, c) * max_cdf
    return total


grids = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


class TestOrderedVector:
    def test_accepts_weakly_increasing(self):
        v = OrderedVector((0, 0, 2, 5))
        assert len(v) == 4 and v[2] == 2 and tuple(v) == (0, 0, 2, 5)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            OrderedVector((2, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OrderedVector(())

    def test_coerce_passthrough(self):
        v = OrderedVector((1, 2))
        assert OrderedVector.coerce(v) is v
        assert OrderedVector.coerce([1, 2]) == v


class TestWeightGrid:
    def test_shape_properties(self):
        g = WeightGrid(np.zeros((3, 5), dtype=np.int64))
        assert (g.m, g.n) == (3, 5)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            WeightGrid(np.zeros((2, 2)))  # float dtype
        with pytest.raises(ValueError):
            WeightGrid(np.array([[1, -1]]))
        with pytest.raises(ValueError):
            WeightGrid(np.zeros(3, dtype=np.int64))


class TestLastPassage:
    def test_single_cell(self):
        assert last_passage(np.array([[7]]))[0, 0] == 7

    def test_row_and_column_are_cumulative_sums(self):
        row = np.array([[1, 0, 4, 2]])
        assert list(last_passage(row)[0]) == [1, 1, 5, 7]
        col = row.T.copy()
        assert list(last_passage(col)[:, 0]) == [1, 1, 5, 7]

    @given(grids)
    def test_matches_path_enumeration(self, rows):
        w = np.array(rows, dtype=np.int64)
        g = last_passage(w)
        assert g[-1, -1] == last_passage_paths(w)

    @given(grids)
    def test_batch_kernel_agrees_with_table(self, rows):
        w = np.array(rows, dtype=np.int64)
        batch = np.stack([w, w + 1])
        finals = _last_passage_final_batch(batch)
        assert finals[0] == last_passage(w)[-1, -1]
        assert finals[1] == last_passage(w + 1)[-1, -1]


class TestSampleGrid:
    def test_deterministic_in_seed(self):
        a = sample_grid(Fraction(1, 2), 4, 5, seed=11)
        b = sample_grid(Fraction(1, 2), 4, 5, seed=11)
        c = sample_grid(Fraction(1, 2), 4, 5, seed=12)
        assert np.array_equal(a.w, b.w)
        assert not np.array_equal(a.w, c.w)

    def test_shape_and_dtype(self):
        g = sample_grid(Fraction(1, 3), 3, 7, seed=0)
        assert (g.m, g.n) == (3, 7)
        assert np.issubdtype(g.w.dtype, np.integer)
        assert (g.w >= 0).all()

    def test_marginal_frequencies(self, q_canon):
        # One large grid gives 60000 i.i.d. draws; each pmf bin must sit
        # within four binomial standard errors of its exact value.
        g = sample_grid(q_canon, 200, 300, seed=5)
        vals = g.w.ravel()
        count = vals.size
        for k in range(8):
            p = float(geometric_pmf(q_canon, k))
            observed = float(np.count_nonzero(vals == k)) / count
            sigma = math.sqrt(p * (1 - p) / count)
            assert abs(observed - p) < 4 * sigma, k

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_grid(Fraction(1, 2), 0, 3, seed=0)


class TestMcCdf:
    def test_deterministic_across_block_boundary(self):
        args = (Fraction(1, 2), 2, 3, 4, 70_000)
        a = mc_cdf(*args, seed=9)
        b = mc_cdf(*args, seed=9)
        assert a == b

    def test_within_four_sigma_of_exact(self, q_canon):
        exact = float(exact_cdf_dp(q_canon, 3, 2, 3))
        p, se = mc_cdf(q_canon, 3, 2, 3, 200_000, seed=21)
        assert se > 0
        assert abs(p - exact) < 4 * se

    def test_transposed_grid_same_law(self):
        # Not equal samplewise, but both within the joint band of the mean.
        q = Fraction(1, 2)
        p1, se1 = mc_cdf(q, 2, 4, 5, 150_000, seed=2)
        p2, se2 = mc_cdf(q, 4, 2, 5, 150_000, seed=3)
        assert abs(p1 - p2) < 4 * math.hypot(se1, se2)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            mc_cdf(Fraction(1, 2), 2, 2, 1, 0, seed=0)

    @pytest.mark.parametrize("q, m, n, etas, samples", [
        (Fraction(2, 3), 3, 2, (0, 4, 9, 4), 65_536 + 123),
        (Fraction(1, 3), 20, 10, (25, 20, 30), 45_000),
    ])
    def test_thresholds_share_one_sample_set(self, q, m, n, etas, samples):
        # The last block is partial, so every threshold is counted on it too.
        block = _mc_block_size(m, n)
        assert samples > block and samples % block
        estimates = mc_cdfs(q, m, n, etas, samples, seed=11)
        assert estimates == [mc_cdf(q, m, n, eta, samples, seed=11) for eta in etas]
        assert len({p for p, _ in estimates}) == len(set(etas))


class TestOneStepTransition:
    def test_worked_example(self):
        # From x = (0, 1) the state y = (2, 2) costs w(2) * w(0) = 1/16.
        q = Fraction(1, 2)
        assert one_step_transition(q, (0, 1), (2, 2)) == Fraction(1, 16)

    def test_blocked_moves_have_zero_probability(self):
        q = Fraction(1, 2)
        assert one_step_transition(q, (1, 3), (2, 2)) == 0
        assert one_step_transition(q, (2, 2), (1, 3)) == 0

    def test_rejects_unordered_states(self):
        with pytest.raises(ValueError):
            one_step_transition(Fraction(1, 2), (0, 1), (2, 1))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            one_step_transition(Fraction(1, 2), (0, 1), (0, 1, 2))

    def test_one_dimensional_is_geometric_gap(self, q_canon):
        for x in range(3):
            for y in range(6):
                expect = geometric_pmf(q_canon, y - x)
                assert one_step_transition(q_canon, (x,), (y,)) == expect

    @pytest.mark.parametrize("x", [(0, 0, 0), (0, 1, 3), (2, 2, 2)])
    def test_row_mass_approaches_one(self, x):
        # Exact sandwich: the truncated row mass is below 1, and the deficit
        # is at most the tail of the n-fold convolution started at max(x).
        q = Fraction(1, 2)
        n = len(x)
        top = max(x) + 25
        mass = Fraction(0)
        states = []

        def extend(prefix, low):
            if len(prefix) == n:
                states.append(tuple(prefix))
                return
            for v in range(low, top + 1):
                extend(prefix + [v], v)

        extend([], 0)
        for y in states:
            mass += one_step_transition(q, x, y)
        tail = 1 - sum(neg_binomial(q, n, s) for s in range(top - max(x) + 1))
        assert mass < 1
        assert 1 - mass <= tail


class TestExactCdfDp:
    def test_single_row_closed_form(self, q_canon):
        for m in (1, 2, 4):
            for eta in range(0, 7):
                assert exact_cdf_dp(q_canon, m, 1, eta) == cdf_one_row(q_canon, m, eta)

    def test_two_by_two_closed_form(self, q_canon):
        for eta in range(0, 7):
            assert exact_cdf_dp(q_canon, 2, 2, eta) == cdf_two_by_two(q_canon, eta)

    def test_transposition_symmetry(self):
        q = Fraction(1, 3)
        for (m, n) in [(2, 3), (1, 4), (3, 4)]:
            for eta in (0, 2, 5):
                assert exact_cdf_dp(q, m, n, eta) == exact_cdf_dp(q, n, m, eta)

    def test_monotone_in_threshold(self, q_canon):
        values = [exact_cdf_dp(q_canon, 3, 3, eta) for eta in range(0, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1

    def test_negative_threshold_is_zero(self):
        assert exact_cdf_dp(Fraction(1, 2), 3, 3, -1) == 0

    def test_zero_threshold_is_all_zero_grid(self, q_canon):
        assert exact_cdf_dp(q_canon, 3, 2, 0) == (1 - q_canon) ** 6

    def test_state_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "10")
        with pytest.raises(StateSpaceError):
            exact_cdf_dp(Fraction(1, 2), 3, 3, 4)

    def test_lowered_cap_applies_to_a_cached_table(self, monkeypatch):
        # 35 states, 490 table entries: the first call caches the table under
        # the default cap, which must not let it through a cap of 35.
        monkeypatch.delenv(MAX_STATES_ENV, raising=False)
        exact_cdf_dp(Fraction(1, 2), 3, 3, 4)
        monkeypatch.setenv(MAX_STATES_ENV, "35")
        with pytest.raises(StateSpaceError):
            exact_cdf_dp(Fraction(1, 2), 3, 3, 4)

    def test_bad_cap_value_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "plenty")
        with pytest.raises(ValueError):
            exact_cdf_dp(Fraction(1, 2), 2, 2, 1)
