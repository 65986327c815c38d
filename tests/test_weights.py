"""Scalar weight calculus: exact identities and the contour cross-check.

The oracles here are deliberately naive: list convolutions for the negative
binomial, explicit Heaviside-kernel sums for anti-differences.  They share no
code with the implementations they check.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CONTOUR_TOL, Q_CANON
from oracles import delta_w_contour, heaviside_conv_pow
from lppdist import (
    ContourConfig,
    GeometricParameter,
    PrecisionLossError,
    QuadratureError,
    circle_nodes,
    delta_neg_binomial,
    delta_pow,
    geometric_pmf,
    neg_binomial,
)
from lppdist.weights import adaptive_batch


def conv(a, b):
    """Full convolution of two coefficient lists indexed from 0."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def neg_binomial_oracle(q, m, length):
    """w_m on 0..length-1 by repeated list convolution of the geometric pmf."""
    geo = [geometric_pmf(q, k) for k in range(length)]
    cur = geo
    for _ in range(m - 1):
        cur = conv(cur, geo)[:length]
    return cur


class TestGeometricParameter:
    def test_accepts_fraction_and_string(self):
        assert GeometricParameter(Fraction(1, 2)).value == Fraction(1, 2)
        assert GeometricParameter.coerce("3/10").value == Fraction(3, 10)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GeometricParameter(0.5)
        with pytest.raises(TypeError):
            GeometricParameter.coerce(0.5)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            GeometricParameter(bad)

    def test_reused_parameter_does_not_admit_equal_inexact_values(self):
        # 0.5 and 0.5 + 0j equal Fraction(1, 2) and hash alike; a reused
        # parameter must not be handed to them.
        first = GeometricParameter.coerce(Fraction(1, 2))
        assert GeometricParameter.coerce(Fraction(2, 4)) is first
        for inexact in (0.5, np.float64(0.5), 0.5 + 0j):
            with pytest.raises(TypeError):
                GeometricParameter.coerce(inexact)
        assert GeometricParameter.coerce("1/2") == first

    @pytest.mark.parametrize("bad", [Fraction(3, 2), 0, "1", "x"])
    def test_invalid_value_raises_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                GeometricParameter.coerce(bad)


class TestContourConfig:
    def test_radius_order_enforced(self):
        with pytest.raises(ValueError):
            ContourConfig(r2=1.5, r1=1.2)
        with pytest.raises(ValueError):
            ContourConfig(r2=0.9, r1=1.2)

    def test_node_count_even_and_bounded(self):
        with pytest.raises(ValueError):
            ContourConfig(r2=1.1, r1=1.2, nodes=8)
        with pytest.raises(ValueError):
            ContourConfig(r2=1.1, r1=1.2, nodes=17)

    def test_validate_for_checks_outer_pole(self):
        cfg = ContourConfig(r2=1.2, r1=1.6)
        cfg.validate_for(Fraction(1, 2))
        with pytest.raises(ValueError):
            cfg.validate_for(Fraction(2, 3))

    def test_for_q_is_admissible(self, q_canon):
        cfg = ContourConfig.for_q(q_canon)
        cfg.validate_for(q_canon)
        assert 1.0 < cfg.r2 < cfg.r1 < 1.0 / float(q_canon)

    def test_for_q_is_shared_per_q_and_nodes_but_refuses_floats(self):
        cfg = ContourConfig.for_q(Fraction(1, 2))
        assert ContourConfig.for_q(GeometricParameter(Fraction(1, 2))) == cfg
        assert ContourConfig.for_q("1/2", 256) == cfg
        assert ContourConfig.for_q(Fraction(1, 2), 512).nodes == 512
        assert cfg.nodes == 256
        with pytest.raises(TypeError):
            ContourConfig.for_q(0.5)
        with pytest.raises(ValueError):
            ContourConfig.for_q(Fraction(1, 2), 17)


class TestGeometricPmf:
    def test_values(self):
        q = Fraction(1, 2)
        assert geometric_pmf(q, 0) == Fraction(1, 2)
        assert geometric_pmf(q, 3) == Fraction(1, 16)
        assert geometric_pmf(q, -1) == 0

    def test_partial_normalization(self, q_canon):
        total = sum(geometric_pmf(q_canon, k) for k in range(30))
        assert total == 1 - q_canon**30


class TestNegBinomial:
    def test_m_one_is_geometric(self, q_canon):
        for x in range(-2, 12):
            assert neg_binomial(q_canon, 1, x) == geometric_pmf(q_canon, x)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matches_convolution_oracle(self, q_canon, m):
        length = 41
        oracle = neg_binomial_oracle(q_canon, m, length)
        for x in range(length):
            assert neg_binomial(q_canon, m, x) == oracle[x]

    @given(a=st.integers(1, 4), b=st.integers(1, 4), x=st.integers(0, 25))
    def test_convolution_semigroup(self, a, b, x):
        q = Fraction(2, 5)
        lhs = sum(neg_binomial(q, a, y) * neg_binomial(q, b, x - y) for y in range(x + 1))
        assert lhs == neg_binomial(q, a + b, x)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            neg_binomial(Fraction(1, 2), 0, 3)

    def test_difference_power_rejects_nonpositive_power(self):
        # Negative orders at x <= 0 vanish without evaluating w_m; the power
        # must be checked before that short cut, as for every other x.
        for m in (0, -1):
            for k, x in [(-2, 0), (-1, -3), (-3, 1), (0, 3), (2, -1)]:
                with pytest.raises(ValueError):
                    delta_neg_binomial(Fraction(1, 2), m, k, x)

    def test_vanishes_left_of_support(self, q_canon):
        assert neg_binomial(q_canon, 4, -1) == 0


class TestHeavisideConvPow:
    def test_base_step(self):
        assert [heaviside_conv_pow(1, x) for x in range(-2, 4)] == [0, 0, 0, 1, 1, 1]

    def test_is_binomial(self):
        assert heaviside_conv_pow(3, 7) == math.comb(6, 2)
        assert heaviside_conv_pow(3, 2) == 0

    def test_convolution_recursion(self):
        for k in range(1, 5):
            for x in range(0, 15):
                direct = heaviside_conv_pow(k + 1, x)
                summed = sum(heaviside_conv_pow(k, x - y) for y in range(1, x))
                assert direct == summed

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            heaviside_conv_pow(0, 3)


class TestDeltaPow:
    def test_first_difference_of_square(self):
        f = lambda x: Fraction(x * x)
        for x in range(-3, 6):
            assert delta_pow(f, 1, x) == 2 * x + 1

    def test_order_zero_is_identity(self):
        assert delta_pow(lambda x: Fraction(7, 3) * x, 0, 5) == Fraction(35, 3)

    @given(a=st.integers(0, 3), b=st.integers(0, 3), x=st.integers(-2, 12))
    def test_positive_orders_compose(self, a, b, x):
        q = Fraction(1, 3)
        f = lambda t: neg_binomial(q, 2, t)
        inner = lambda t: delta_pow(f, b, t)
        assert delta_pow(inner, a, x) == delta_pow(f, a + b, x)

    def test_summation_then_difference_restores(self):
        q = Fraction(1, 2)
        f = lambda t: neg_binomial(q, 3, t)
        g = lambda t: delta_pow(f, -1, t, support_min=0)
        for x in range(0, 10):
            assert delta_pow(g, 1, x) == f(x)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_negative_orders_match_heaviside_kernel(self, k):
        q = Fraction(2, 3)
        f = lambda t: neg_binomial(q, 2, t)
        for x in range(-1, 18):
            direct = delta_pow(f, -k, x, support_min=0)
            kernel = sum(heaviside_conv_pow(k, x - y) * f(y) for y in range(max(0, x - k) + 1))
            assert direct == kernel

    def test_negative_order_requires_support(self):
        with pytest.raises(ValueError):
            delta_pow(lambda t: Fraction(1), -1, 3)

    def test_shifted_support_bound(self):
        f = lambda t: Fraction(1) if t >= 2 else Fraction(0)
        assert delta_pow(f, -1, 5, support_min=2) == 3
        assert delta_pow(f, -1, 2, support_min=2) == 0


class TestDeltaNegBinomial:
    def test_first_difference_definition(self, q_canon):
        for m in (1, 3):
            for x in range(-2, 10):
                expect = neg_binomial(q_canon, m, x + 1) - neg_binomial(q_canon, m, x)
                assert delta_neg_binomial(q_canon, m, 1, x) == expect

    def test_positive_orders_vanish_left_of_window(self):
        q = Fraction(1, 2)
        for k in range(0, 5):
            for x in range(-8, -k):
                assert delta_neg_binomial(q, 3, k, x) == 0

    def test_negative_orders_vanish_at_or_below_zero(self):
        q = Fraction(1, 2)
        for k in range(1, 5):
            for x in range(-4, 1):
                assert delta_neg_binomial(q, 3, -k, x) == 0

    def test_anti_difference_is_distribution_function(self, q_canon):
        for eta in range(0, 8):
            cdf = sum(neg_binomial(q_canon, 2, s) for s in range(eta + 1))
            assert delta_neg_binomial(q_canon, 2, -1, eta + 1) == cdf

    @given(
        q=st.integers(2, 50).flatmap(
            lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))
        ),
        m=st.integers(1, 8),
        k=st.integers(-8, 8),
        x=st.integers(-3, 25),
    )
    def test_integer_route_matches_fraction_route(self, q, m, k, x):
        # The difference calculus run directly on the Fraction values of w_m.
        oracle = delta_pow(lambda t: neg_binomial(q, m, t), k, x, support_min=0)
        value = delta_neg_binomial(q, m, k, x)
        assert isinstance(value, Fraction)
        assert value == oracle


def circle_evaluate(integrand, radius):
    """(1/2 pi i) times the contour integral over |z| = radius, as `adaptive_batch` input.

    Maps a node count to the trapezoidal mean of integrand(z) z and the
    largest summand magnitude, both over the last (node) axis.
    """

    def evaluate(count):
        z = circle_nodes(radius, count)
        terms = integrand(z) * z
        return np.mean(terms, axis=-1), np.max(np.abs(terms), axis=-1)

    return evaluate


class TestCircleQuadrature:
    def test_monomials_integrate_to_residue(self):
        for k in range(-3, 4):
            val, _ = circle_evaluate(lambda z, k=k: z**k, 1.3)(64)
            expect = 1.0 if k == -1 else 0.0
            assert abs(val - expect) < 1e-13

    def test_adaptive_matches_known_pole(self):
        # 1/(z - a) with |a| < radius integrates to 1.
        val = adaptive_batch(circle_evaluate(lambda z: 1.0 / (z - 0.4), 1.1), 16)
        assert abs(val - 1.0) < 1e-12

    def test_adaptive_raises_on_singular_node(self):
        # A pole sitting exactly on the contour never stabilizes.
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(QuadratureError):
            adaptive_batch(circle_evaluate(lambda z: 1.0 / (z - 1.1), 1.1), 16)

    def test_batched_elements_converge_on_their_own_scale(self):
        # A huge constant element must not loosen the stopping rule of a
        # small element whose pole sits close to the contour.
        vals = adaptive_batch(
            circle_evaluate(lambda z: np.stack([1e10 / z, 1.0 / (z - 0.97)]), 1.0), 32
        )
        assert abs(vals[1] - 1.0) < 1e-12

    def test_batched_integrand_axes(self):
        exps = np.arange(-2, 2)[:, None]
        vals = adaptive_batch(circle_evaluate(lambda z: z[None, :] ** exps, 1.2), 32)
        assert vals.shape == (4,)
        assert np.allclose(vals, [0, 1, 0, 0], atol=1e-12)


class TestDeltaContour:
    @pytest.mark.parametrize("q", Q_CANON, ids=lambda q: f"q={q}")
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_matches_exact_differences(self, q, m):
        for k in (-4, -3, -1, 0, 2, 4):
            for x in (-3, -1, 0, 1, 2, 5, 12, 20):
                exact = float(delta_neg_binomial(q, m, k, x))
                approx = delta_w_contour(q, m, k, x)
                assert abs(approx - exact) < CONTOUR_TOL, (q, m, k, x)

    def test_respects_contour_config(self):
        q = Fraction(1, 2)
        cfg = ContourConfig(r2=1.7, r1=1.9, nodes=64)
        exact = float(delta_neg_binomial(q, 2, 1, 4))
        assert abs(delta_w_contour(q, 2, 1, 4, cfg) - exact) < CONTOUR_TOL

    def test_rejects_inadmissible_radius(self):
        cfg = ContourConfig(r2=1.8, r1=1.9)
        with pytest.raises(ValueError):
            delta_w_contour(Fraction(2, 3), 2, 1, 4, cfg)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            delta_w_contour(Fraction(1, 2), 0, 1, 4)

    @pytest.mark.parametrize("x", [100, 800])
    def test_refuses_a_sum_lost_in_its_roundoff_floor(self, x):
        # For k < 0 the summands grow like radius^-x while Delta^-1 w_2(x)
        # stays near 1, so a converged sum of them (0.99873 at x = 100,
        # -7.36e83 at x = 800) carries no correct digits.
        assert float(delta_neg_binomial(Fraction(1, 2), 2, -1, x)) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PrecisionLossError, match="roundoff floor"):
                delta_w_contour(Fraction(1, 2), 2, -1, x)

    @pytest.mark.parametrize("k, x", [(-1, 3000), (2, 5000)])
    def test_refuses_summands_outside_the_float_range(self, k, x):
        # radius^(x+k+1) underflows (k < 0, radius < 1) or overflows
        # (k >= 0, radius > 1).
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PrecisionLossError, match="float range"):
                delta_w_contour(Fraction(1, 2), 2, k, x)
