"""Determinant layer against oracles that avoid determinants entirely.

The exact elimination is checked against permutation expansion; the one-step
determinant against the product formula; the multi-step determinant against
explicit convolution over intermediate states; the joint value against both a
step-by-step chain propagation (exact) and a Monte Carlo frequency (4 sigma).
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import Q_CANON
from lppdist import (
    CdfQuery,
    StateSpaceError,
    TransitionQuery,
    bareiss_determinant,
    cdf_det,
    exact_cdf_dp,
    joint_cdf,
    one_step_transition,
    transition_det,
)
from lppdist.detformulas import _summed_transition_matrix
from lppdist.lpp import MAX_STATES_ENV


def det_permutation(matrix):
    """Leibniz expansion; exponential, fine for n <= 4."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= Fraction(matrix[i][perm[i]])
        total += term
    return total


def ordered_states(n, top):
    """All weakly increasing n-tuples with entries in [0, top]."""
    out = []

    def extend(prefix, low):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(low, top + 1):
            extend(prefix + [v], v)

    extend([], 0)
    return out


def joint_chain_oracle(q, m, n, eta1, eta2, trunc):
    """Two-point value by stepwise product-formula propagation.

    Coordinates are nondecreasing along the chain, so pruning at the bounds
    that the composed formula applies at its two marked times removes exactly
    the paths the formula excludes; the result is an exact rational equal to
    the truncated composition.
    """
    bounds_before = [eta1] * m + [trunc] * (n - m)
    dist = {(0,) * n: Fraction(1)}
    for step in range(1, n + 1):
        top = bounds_before if step <= m else [eta2] * n
        nxt = {}
        for x, mass in dist.items():
            stack = [((), 0)]
            while stack:
                prefix, low = stack.pop()
                k = len(prefix)
                if k == n:
                    p = one_step_transition(q, x, prefix)
                    if p:
                        nxt[prefix] = nxt.get(prefix, Fraction(0)) + mass * p
                    continue
                for v in range(max(low, x[k]), min(top[k], trunc) + 1):
                    stack.append((prefix + (v,), v))
        dist = nxt
        if step == m:
            dist = {x: mass for x, mass in dist.items() if x[m - 1] <= eta1}
    return sum(
        (mass for x, mass in dist.items() if x[n - 1] <= eta2), Fraction(0)
    )


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


# Rows of Fractions whose denominators differ from row to row; the zero
# numerators keep producing zero leading pivots.
rational_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.integers(1, 12).flatmap(
            lambda den: st.lists(
                st.integers(-5, 5).map(lambda num: Fraction(num, den)),
                min_size=n,
                max_size=n,
            )
        ),
        min_size=n,
        max_size=n,
    )
)


def random_state(rng, n, top=8):
    return tuple(sorted(int(v) for v in rng.integers(0, top + 1, n)))


class TestBareissDeterminant:
    @given(small_matrices)
    def test_matches_permutation_expansion(self, rows):
        assert bareiss_determinant(rows) == det_permutation(rows)

    @given(rational_matrices)
    def test_rational_rows_match_permutation_expansion(self, rows):
        assert bareiss_determinant(rows) == det_permutation(rows)

    def test_pivoting_handles_leading_zero(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_singular_matrix_is_zero(self):
        assert bareiss_determinant([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0

    def test_rational_entries_stay_exact(self):
        hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
        assert bareiss_determinant(hilbert) == det_permutation(hilbert)

    def test_empty_matrix_is_one(self):
        assert bareiss_determinant([]) == 1

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[1, 2], [3]])


class TestQueryValidation:
    def test_transition_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            TransitionQuery(Fraction(1, 2), -1, (0,), (1,))

    def test_transition_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            TransitionQuery(Fraction(1, 2), 1, (0, 0), (1,))

    def test_cdf_requires_wide_grid(self):
        with pytest.raises(ValueError):
            CdfQuery(Fraction(1, 2), 2, 3, 1)
        with pytest.raises(ValueError):
            CdfQuery(Fraction(1, 2), 3, 3, -1)


class TestTransitionDet:
    def test_zero_steps_is_indicator(self):
        q = Fraction(1, 2)
        assert transition_det(TransitionQuery(q, 0, (1, 2), (1, 2))) == 1
        assert transition_det(TransitionQuery(q, 0, (1, 2), (1, 3))) == 0

    def test_single_step_worked_example(self):
        tq = TransitionQuery(Fraction(1, 2), 1, (0, 1), (2, 2))
        assert transition_det(tq) == Fraction(1, 16)

    def test_single_step_matches_product_formula(self, rng, q_canon):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            x = random_state(rng, n)
            y = random_state(rng, n)
            tq = TransitionQuery(q_canon, 1, x, y)
            assert transition_det(tq) == one_step_transition(q_canon, x, y)

    def test_vanishes_off_the_order_cone(self):
        q = Fraction(1, 3)
        assert transition_det(TransitionQuery(q, 2, (1, 3), (2, 2))) == 0
        assert transition_det(TransitionQuery(q, 3, (0, 5), (1, 4))) == 0

    def test_two_steps_by_explicit_convolution(self):
        q = Fraction(1, 2)
        x, z = (0, 1), (2, 3)
        direct = transition_det(TransitionQuery(q, 2, x, z))
        total = Fraction(0)
        for y in ordered_states(2, max(z)):
            total += one_step_transition(q, x, y) * one_step_transition(q, y, z)
        assert direct == total

    def test_float_layer_tracks_exact(self, q_canon):
        tq = TransitionQuery(q_canon, 3, (0, 0, 1), (1, 2, 4))
        exact = transition_det(tq)
        approx = transition_det(tq, exact=False)
        assert abs(approx - float(exact)) < 1e-12


class TestCdfDet:
    def test_matches_dp_spot_checks(self):
        for (q, m, n, eta) in [
            (Fraction(1, 2), 2, 2, 1),
            (Fraction(1, 3), 3, 2, 4),
            (Fraction(2, 3), 4, 3, 2),
        ]:
            assert cdf_det(CdfQuery(q, m, n, eta)) == exact_cdf_dp(q, m, n, eta)

    def test_zero_threshold_closed_form(self, q_canon):
        assert cdf_det(CdfQuery(q_canon, 3, 2, 0)) == (1 - q_canon) ** 6

    def test_single_column_is_convolution_cdf(self, q_canon):
        from lppdist import neg_binomial

        for m in (1, 2, 5):
            for eta in range(5):
                expect = sum(neg_binomial(q_canon, m, s) for s in range(eta + 1))
                assert cdf_det(CdfQuery(q_canon, m, 1, eta)) == expect

    def test_toeplitz_fill_matches_summed_transition_matrix(self):
        # cdf_det fills its matrix from 2n - 1 values by j - i; the summed
        # transition matrix from the origin builds all n^2 entries directly.
        q, m, n, eta = Fraction(4, 7), 16, 12, 40
        full = _summed_transition_matrix(q, m, (0,) * n, eta)
        assert cdf_det(CdfQuery(q, m, n, eta)) == bareiss_determinant(full)

    def test_float_layer_tracks_exact(self, q_canon):
        cq = CdfQuery(q_canon, 4, 3, 3)
        assert abs(cdf_det(cq, exact=False) - float(cdf_det(cq))) < 1e-10


class TestJointCdf:
    def test_matches_chain_propagation_exactly(self):
        q = Fraction(1, 2)
        for (m, n) in [(1, 2), (2, 3), (1, 3)]:
            for (eta1, eta2) in [(1, 1), (2, 3), (3, 1)]:
                trunc = max(eta1, eta2) + 3
                value, _ = joint_cdf(q, m, n, eta1, eta2, trunc)
                oracle = joint_chain_oracle(q, m, n, eta1, eta2, trunc)
                assert value == oracle, (m, n, eta1, eta2)

    def test_edge_equals_truncation_shell(self):
        # Raising the cutoff by one adds exactly the reported edge mass.
        q = Fraction(1, 3)
        lo, _ = joint_cdf(q, 1, 3, 2, 4, 6)
        hi, edge = joint_cdf(q, 1, 3, 2, 4, 7)
        assert hi - lo == edge

    def test_cutoff_does_not_change_value(self):
        # Every coordinate of the intermediate state is at most G(n, n) <= eta2.
        q = Fraction(1, 3)
        at_eta2 = joint_cdf(q, 1, 3, 2, 4, 4)
        assert at_eta2 == joint_cdf(q, 1, 3, 2, 4, 9)
        assert at_eta2[1] == 0
        with pytest.raises(ValueError):
            joint_cdf(q, 1, 3, 2, 4, 3)

    def test_value_monotone_in_cutoff(self):
        q = Fraction(2, 3)
        values = [joint_cdf(q, 2, 3, 2, 3, t)[0] for t in range(3, 8)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_against_monte_carlo(self):
        q, m, n, eta1, eta2 = Fraction(1, 2), 1, 2, 1, 2
        value, _ = joint_cdf(q, m, n, eta1, eta2, eta2 + 25)
        rng = np.random.default_rng(424242)
        batch = 150_000
        w = rng.geometric(1 - float(q), size=(batch, n, n)) - 1
        g = np.zeros((batch, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                up = g[:, i - 1, j] if i else 0
                left = g[:, i, j - 1] if j else 0
                g[:, i, j] = np.maximum(up, left) + w[:, i, j]
        hits = (g[:, m - 1, m - 1] <= eta1) & (g[:, n - 1, n - 1] <= eta2)
        p = float(np.mean(hits))
        sigma = math.sqrt(p * (1 - p) / batch)
        assert abs(p - float(value)) < 4 * sigma

    def test_rejects_bad_order_and_cutoff(self):
        q = Fraction(1, 2)
        with pytest.raises(ValueError):
            joint_cdf(q, 2, 2, 1, 1, 5)
        with pytest.raises(ValueError):
            joint_cdf(q, 1, 2, 3, 4, 2)

    def test_negative_thresholds_are_zero(self):
        assert joint_cdf(Fraction(1, 2), 1, 2, -1, 3, 5) == (0, 0)

    def test_state_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "5")
        with pytest.raises(StateSpaceError):
            joint_cdf(Fraction(1, 2), 1, 3, 2, 2, 4)

    def test_state_cap_refusal_has_bounded_memory(self, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "50")
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceError):
                joint_cdf(Fraction(1, 2), 1, 4, 2, 80, 80)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
