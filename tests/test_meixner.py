"""Ensemble route: moments, normalization, box sums, and the polynomials.

The closed-form moments are bracketed by partial sums with rigorous geometric
tail bounds, the normalization by growing boxes and by the Hankel determinant
of those moments, and the probability values by the finite-difference
determinant route, which shares nothing with the ensemble summation.
"""

import math
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, strategies as st

from conftest import Q_CANON
from lppdist import (
    CdfQuery,
    MeixnerEnsembleQuery,
    PrecisionLossError,
    StateSpaceError,
    bareiss_determinant,
    cdf_det,
    meixner_cdf_bruteforce,
    meixner_cdf_gram,
    meixner_poly,
    meixner_weight,
    partition_function,
    vandermonde,
)
from lppdist.lpp import MAX_STATES_ENV


def _stirling2_row(r: int) -> list[int]:
    """Stirling numbers of the second kind S(r, 0..r)."""
    row = [1]
    for size in range(1, r + 1):
        prev = row
        row = [0] * (size + 1)
        for k in range(1, size + 1):
            row[k] = k * (prev[k] if k < size else 0) + prev[k - 1]
    return row


def _exact_moment(q: Fraction, a: int, r: int) -> Fraction:
    """Closed form of sum_{x>=0} x^r binom(x+a, x) q^x.

    Applying (q d/dq)^r to the binomial series of (1-q)^-(a+1) and expanding
    the operator in ordinary derivatives through Stirling numbers of the
    second kind gives

        mu_r = sum_k S2(r, k) q^k (a+1)^(k, rising) (1-q)^-(a+1+k).
    """
    s2 = _stirling2_row(r)
    total = Fraction(0)
    for k in range(r + 1):
        rising = math.prod(a + 1 + t for t in range(k))
        total += s2[k] * q**k * rising * (1 - q) ** (-(a + 1 + k))
    return total


def moment_bracket(q, a, r, upto=220):
    """Partial sum of sum_x x^r binom(x+a,x) q^x plus a rigorous tail bound.

    Beyond the cutoff the term ratio q (1+1/x)^r (x+1+a)/(x+1) is decreasing,
    so the tail is dominated by a geometric series started at the first
    omitted term.
    """
    term = lambda x: Fraction(x) ** r * meixner_weight(q, a, x)
    partial = sum((term(x) for x in range(upto + 1)), Fraction(0))
    x0 = upto + 1
    ratio = q * Fraction(x0 + 1, x0) ** r * Fraction(x0 + 1 + a, x0 + 1)
    assert ratio < 1, "cutoff too small for a geometric tail bound"
    tail = term(x0) / (1 - ratio)
    return partial, tail


def box_numerator(q, m, n, high):
    """Brute ensemble mass of the box {0..high}^n, unnormalized."""
    site = [meixner_weight(q, m - n, x) for x in range(high + 1)]
    total = Fraction(0)
    stack = [((), Fraction(1))]
    while stack:
        config, weight = stack.pop()
        if len(config) == n:
            v = vandermonde(config)
            total += v * v * weight
            continue
        for x in range(high + 1):
            stack.append((config + (x,), weight * site[x]))
    return total


class TestVandermonde:
    def test_examples(self):
        assert vandermonde((5,)) == 1
        assert vandermonde((0, 1, 3)) == 6
        assert vandermonde((3, 1, 0)) == -2 * -3 * -1

    @given(st.lists(st.integers(0, 12), min_size=2, max_size=5))
    def test_antisymmetric_under_adjacent_swap(self, xs):
        swapped = [xs[1], xs[0]] + xs[2:]
        assert vandermonde(swapped) == -vandermonde(xs)

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    def test_zero_on_repeats(self, xs):
        assert vandermonde(xs + [xs[0]] + [xs[0]]) == 0


class TestMeixnerWeight:
    def test_zero_offset_is_geometric_profile(self, q_canon):
        for x in range(6):
            assert meixner_weight(q_canon, 0, x) == q_canon**x

    def test_negative_position_is_zero(self):
        assert meixner_weight(Fraction(1, 2), 3, -1) == 0

    def test_binomial_factor(self):
        assert meixner_weight(Fraction(1, 2), 2, 3) == 10 * Fraction(1, 8)


class TestExactMoments:
    @pytest.mark.parametrize("a", [0, 1, 3])
    @pytest.mark.parametrize("r", [0, 1, 2, 4])
    def test_bracketed_by_partial_sums(self, a, r):
        for q in (Fraction(1, 3), Fraction(2, 3)):
            mu = _exact_moment(q, a, r)
            partial, tail = moment_bracket(q, a, r)
            assert partial < mu <= partial + tail

    def test_zeroth_moment_closed_form(self, q_canon):
        for a in range(4):
            assert _exact_moment(q_canon, a, 0) == (1 - q_canon) ** (-(a + 1))


class TestPartitionFunction:
    def test_single_particle_closed_form(self, q_canon):
        for m in (1, 2, 4):
            assert partition_function(q_canon, m, 1) == (1 - q_canon) ** (-m)

    def test_growing_box_exhausts_mass_two_particles(self):
        q, m, n = Fraction(1, 2), 2, 2
        z = partition_function(q, m, n)
        small = box_numerator(q, m, n, 25)
        large = box_numerator(q, m, n, 60)
        assert small < large < z
        assert (z - large) / z < Fraction(1, 10**9)

    def test_growing_box_exhausts_mass_three_particles(self):
        q, m, n = Fraction(1, 3), 4, 3
        z = partition_function(q, m, n)
        box = box_numerator(q, m, n, 30)
        assert box < z
        assert (z - box) / z < Fraction(1, 10**6)

    def test_equals_hankel_moment_determinant(self):
        """Z = n! det(mu_{i+j}) by Andreief, with the moments in closed form."""
        qs = [Fraction(1, 50), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(9, 10), Fraction(49, 50), Fraction(27, 107)]
        for q in qs:
            for n in range(1, 10):
                for m in range(n, n + 7):
                    moments = [_exact_moment(q, m - n, r) for r in range(2 * n - 1)]
                    hankel = [[moments[i + j] for j in range(n)] for i in range(n)]
                    assert partition_function(q, m, n) == (
                        math.factorial(n) * bareiss_determinant(hankel)
                    ), (q, m, n)

    @pytest.mark.parametrize("m, n", [(2, 3), (3, -1), (0, 0)])
    def test_rejects_shapes_outside_m_ge_n_ge_1(self, m, n):
        with pytest.raises(ValueError, match=f"need m >= n >= 1, got m={m}, n={n}"):
            partition_function(Fraction(1, 2), m, n)


class TestBruteforceCdf:
    def test_matches_determinant_route(self):
        cases = [
            (Fraction(1, 2), 3, 2, 3),
            (Fraction(1, 3), 3, 3, 2),
            (Fraction(2, 3), 4, 2, 1),
        ]
        for (q, m, n, eta) in cases:
            brute = meixner_cdf_bruteforce(MeixnerEnsembleQuery(q, m, n, eta))
            assert brute == cdf_det(CdfQuery(q, m, n, eta))

    def test_empty_box_is_zero(self):
        assert meixner_cdf_bruteforce(MeixnerEnsembleQuery(Fraction(1, 2), 2, 2, -1)) == 0

    def test_particle_count_cap(self):
        with pytest.raises(StateSpaceError):
            meixner_cdf_bruteforce(MeixnerEnsembleQuery(Fraction(1, 2), 5, 5, 1))

    def test_cell_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(MAX_STATES_ENV, "10")
        with pytest.raises(StateSpaceError):
            meixner_cdf_bruteforce(MeixnerEnsembleQuery(Fraction(1, 2), 3, 3, 3))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            MeixnerEnsembleQuery(Fraction(1, 2), 2, 3, 1)
        with pytest.raises(ValueError):
            MeixnerEnsembleQuery(Fraction(1, 2), 3, 2, -2)


def fraction_box_cdf(mq):
    """Reference box sum: one Fraction term per cell, Vandermonde per cell."""
    hi = mq.box_high
    site = [meixner_weight(mq.q, mq.m - mq.n, x) for x in range(hi + 1)]
    numerator = Fraction(0)
    for config in product(range(hi + 1), repeat=mq.n):
        v = vandermonde(config)
        if v == 0:
            continue
        term = Fraction(v * v)
        for x in config:
            term *= site[x]
        numerator += term
    return numerator / partition_function(mq.q, mq.m, mq.n)


@st.composite
def small_boxes(draw):
    """q = a/b with b <= 50, 1 <= n <= 4, n <= m <= n+3, (eta+n)^n <= 3000."""
    b = draw(st.integers(2, 50))
    q = Fraction(draw(st.integers(1, b - 1)), b)
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 3))
    top = max(eta for eta in range(-1, 3000) if (eta + n) ** n <= 3000)
    return MeixnerEnsembleQuery(q, m, n, draw(st.integers(-1, top)))


class TestIntegerBoxSum:
    @given(small_boxes())
    def test_matches_fraction_cell_loop(self, mq):
        assert meixner_cdf_bruteforce(mq) == fraction_box_cdf(mq)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_single_particle_closed_form(self, q_canon, m):
        for eta in range(8):
            expect = sum(math.comb(x + m - 1, x) * q_canon**x for x in range(eta + 1))
            expect *= (1 - q_canon) ** m
            assert meixner_cdf_bruteforce(MeixnerEnsembleQuery(q_canon, m, 1, eta)) == expect

    def test_single_particle_large_box_closed_form(self):
        # A 5001-site box: the sum must stay linear in the box, not quadratic.
        q, m, eta = Fraction(1, 2), 2, 5000
        scaled = sum(math.comb(x + m - 1, x) * 2 ** (eta - x) for x in range(eta + 1))
        expect = Fraction(scaled, 2**eta) * (1 - q) ** m
        assert meixner_cdf_bruteforce(MeixnerEnsembleQuery(q, m, 1, eta)) == expect

    def test_slowest_pool_shape_matches_determinant_route(self):
        q, m, n, eta = Fraction(5, 8), 5, 4, 6
        brute = meixner_cdf_bruteforce(MeixnerEnsembleQuery(q, m, n, eta))
        assert brute == cdf_det(CdfQuery(q, m, n, eta))


class TestGramCdf:
    @pytest.mark.parametrize(
        "q,m,n,eta",
        [
            (Fraction(1, 2), 2, 2, 3),
            (Fraction(1, 3), 4, 2, 2),
            (Fraction(2, 3), 5, 3, 1),
        ],
    )
    def test_matches_bruteforce_to_working_precision(self, q, m, n, eta):
        exact = meixner_cdf_bruteforce(MeixnerEnsembleQuery(q, m, n, eta))
        value = meixner_cdf_gram(MeixnerEnsembleQuery(q, m, n, eta), precision=40)
        with mpmath.workdps(60):
            reference = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(value - reference) < mpmath.mpf(10) ** (-30)

    def test_empty_box_is_zero(self):
        assert meixner_cdf_gram(MeixnerEnsembleQuery(Fraction(1, 2), 2, 2, -1)) == 0

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            meixner_cdf_gram(MeixnerEnsembleQuery(Fraction(1, 2), 2, 2, 1), precision=5)

    def test_precision_loss_detected(self):
        query = MeixnerEnsembleQuery(Fraction(1, 2), 6, 6, 30)
        with pytest.raises(PrecisionLossError):
            meixner_cdf_gram(query, precision=10)

    def test_singular_gram_matrix_is_precision_loss(self):
        query = MeixnerEnsembleQuery(Fraction(1, 2), 25, 25, 100)
        with pytest.raises(PrecisionLossError, match="raise precision"):
            meixner_cdf_gram(query)


class TestMeixnerPoly:
    def test_degree_zero_is_one(self):
        q = Fraction(1, 2)
        for x in (0, 1, 7, 30):
            assert abs(meixner_poly(q, 2, 0, x) - 1.0) < 1e-10

    def test_degree_one_closed_form(self, q_canon):
        beta = 3
        qf = float(q_canon)
        for x in range(8):
            expect = beta + x * (qf - 1.0) / qf
            assert abs(meixner_poly(q_canon, beta, 1, x) - expect) < 1e-9

    def test_second_difference_of_linear_vanishes(self):
        q = Fraction(1, 2)
        vals = [meixner_poly(q, 2, 1, x) for x in range(6)]
        for left, mid, right in zip(vals, vals[1:], vals[2:]):
            assert abs(right - 2 * mid + left) < 1e-9

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2), (1, 3)])
    def test_orthogonality_under_ensemble_weight(self, pair):
        q, beta = Fraction(1, 2), 2
        i, j = pair
        cutoff = 220
        cross = norm = 0.0
        for x in range(cutoff):
            rho = float(meixner_weight(q, beta - 1, x))
            pi = meixner_poly(q, beta, i, x)
            pj = meixner_poly(q, beta, j, x)
            cross += pi * pj * rho
            norm += pj * pj * rho
        assert abs(cross) < 1e-7 * max(1.0, norm)

    def test_argument_validation(self):
        q = Fraction(1, 2)
        with pytest.raises(ValueError):
            meixner_poly(q, 0, 1, 1)
        with pytest.raises(ValueError):
            meixner_poly(q, 2, -1, 1)
        with pytest.raises(ValueError):
            meixner_poly(q, 2, 1, -1)
