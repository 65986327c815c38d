"""The column-by-column DP sweep against whole-row table propagation and the determinant.

`table_cdf` is the earlier form of `exact_cdf_dp`: it builds every outgoing
row of the box-truncated chain on integer weights and propagates over all
(x, y) pairs.  The sweep must return the same Fraction.  `cdf_det` shares no
code with either, so the larger shapes are checked against it.
"""

import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from lppdist import CdfQuery, StateSpaceError, cdf_det, exact_cdf_dp
from lppdist import lpp
from lppdist.weights import MAX_STATES_ENV


def table_cdf(q, m, n, eta):
    """P[G(m, n) <= eta] by propagating whole outgoing rows of the truncated chain."""
    states = list(combinations_with_replacement(range(eta + 1), n))
    index = {s: i for i, s in enumerate(states)}
    a, b = q.numerator, q.denominator
    # (1-q)^n q^e = (b-a)^n a^e / b^(n+e); e <= n*eta inside the box.
    powers = [(b - a) ** n * a**e * b ** (n * eta - e) for e in range(n * eta + 1)]
    rows = []
    for x in states:
        row = []
        y = [0] * n

        def extend(k, prev, esum):
            if k == n:
                row.append((index[tuple(y)], powers[esum]))
                return
            low = max(x[k], prev)
            for yk in range(low, eta + 1):
                y[k] = yk
                extend(k + 1, yk, esum + yk - low)

        extend(0, 0, 0)
        rows.append(row)
    dist = [0] * len(states)
    dist[0] = 1
    for _ in range(m):
        nxt = [0] * len(states)
        for i, mass in enumerate(dist):
            if mass:
                for j, weight in rows[i]:
                    nxt[j] += mass * weight
        dist = nxt
    return Fraction(sum(dist), b ** (n * (eta + 1) * m))


rationals = st.integers(2, 50).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b)))


class TestSweepMatchesTablePropagation:
    @given(q=rationals, m=st.integers(1, 5), n=st.integers(1, 5), eta=st.integers(0, 6))
    def test_same_fraction(self, q, m, n, eta):
        assert exact_cdf_dp(q, m, n, eta) == table_cdf(q, m, n, eta)


#: The DP shapes of the benchmark's exact pool, then two with small eta and large n.
DETERMINANT_SHAPES = [
    (Fraction(3, 4), 5, 2, 14),
    (Fraction(83, 112), 4, 3, 7),
    (Fraction(3, 11), 3, 5, 4),
    (Fraction(45, 98), 6, 4, 5),
    (Fraction(5, 8), 5, 4, 6),
    (Fraction(69, 119), 2, 3, 9),
    (Fraction(3, 5), 4, 4, 7),
    (Fraction(1, 2), 8, 8, 2),
    (Fraction(1, 2), 6, 10, 2),
]


class TestSweepMatchesDeterminant:
    @pytest.mark.parametrize("q, m, n, eta", DETERMINANT_SHAPES,
                             ids=lambda v: str(v))
    def test_shape(self, q, m, n, eta):
        tall, wide = max(m, n), min(m, n)
        assert exact_cdf_dp(q, m, n, eta) == cdf_det(CdfQuery(q, tall, wide, eta))

    def test_many_columns_keep_exact_keys(self):
        # binom(eta + n - 1, n - 1) rows at n = 66: any base-(eta+1) packing of
        # a 65-entry row into one int64 would wrap here.
        q = Fraction(1, 2)
        assert exact_cdf_dp(q, 2, 66, 1) == cdf_det(CdfQuery(q, 66, 2, 1))


class TestSweepStateCap:
    # (1/2, 3, 3, 4): 35 states, 490 table entries and 5 * 55 = 275 sweep
    # cells over its three layers.
    def test_refusal_reports_the_table_entry_total(self, monkeypatch):
        for cap in ("489", "35"):
            monkeypatch.setenv(MAX_STATES_ENV, cap)
            with pytest.raises(StateSpaceError, match=r"DP table entries for n=3, eta=4 number at least 490,"):
                exact_cdf_dp(Fraction(1, 2), 3, 3, 4)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_charged_entries_equal_the_row_by_row_count(self, n, monkeypatch):
        # The row-by-row table held one entry per pair of states x <= y; the
        # DP runs at a cap of exactly that count and refuses one below it.
        q = Fraction(1, 2)
        for eta in range(0, 5):
            states = list(combinations_with_replacement(range(eta + 1), n))
            total = sum(all(a <= b for a, b in zip(x, y)) for x in states for y in states)
            assert lpp._table_entries(n, eta) == total
            monkeypatch.delenv(MAX_STATES_ENV, raising=False)
            expected = cdf_det(CdfQuery(q, n, n, eta))
            if total > 1:
                monkeypatch.setenv(MAX_STATES_ENV, str(total - 1))
                with pytest.raises(StateSpaceError, match=f"number at least {total},"):
                    exact_cdf_dp(q, n, n, eta)
            monkeypatch.setenv(MAX_STATES_ENV, str(total))
            assert exact_cdf_dp(q, n, n, eta) == expected

    def test_shape_within_the_table_entry_count_still_runs(self, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "490")
        q = Fraction(1, 2)
        assert exact_cdf_dp(q, 3, 3, 4) == cdf_det(CdfQuery(q, 3, 3, 4))

    def test_large_eta_refusal_has_bounded_memory(self, monkeypatch):
        # Over 8e12 table entries; an object layer of 2236^2 cells would hold
        # about a gigabyte of integers.
        monkeypatch.delenv(MAX_STATES_ENV, raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceError, match="DP table entries"):
                exact_cdf_dp(Fraction(1, 2), 2, 2, 2235)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_plan_over_the_cap_is_rebuilt_per_step_not_kept(self, monkeypatch):
        # n = 10, eta = 1: 66 table entries, 2 * binom(12, 9) = 440 sweep cells.
        q = Fraction(1, 2)
        monkeypatch.setenv(MAX_STATES_ENV, "439")
        assert exact_cdf_dp(q, 3, 10, 1) == cdf_det(CdfQuery(q, 10, 3, 1))
        assert lpp._transition_table(10, 1, 439) is None
        monkeypatch.setenv(MAX_STATES_ENV, "440")
        assert exact_cdf_dp(q, 3, 10, 1) == cdf_det(CdfQuery(q, 10, 3, 1))
        assert len(lpp._transition_table(10, 1, 440)) == 10

    def test_plan_keys_past_int32_are_refused(self):
        with pytest.raises(StateSpaceError, match="int32"):
            lpp._transition_table(1, 2**31, 2**80)

    def test_plan_cache_is_bounded(self):
        assert lpp._transition_table.cache_info().maxsize is not None
