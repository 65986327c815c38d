"""Contour-integral function families, kernel, and Fredholm route.

The central oracles are exact residue evaluations of both defining integrals:
closed-form rational series coefficients that share nothing with the
trapezoidal quadrature.  On top of them sit exact biorthogonality, the exact
change-of-basis reconstruction of b from difference powers of the convolution
weight, and float-level agreement of every evaluator.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import FLOAT_TOL, Q_CANON
from oracles import a_fn, b_fn, c_matrix
from lppdist import (
    ContourConfig,
    KernelSpec,
    QuadratureError,
    VARIANTS,
    bareiss_determinant,
    biorthogonal_pairing,
    cdf_biorth,
    cdf_fredholm,
    delta_neg_binomial,
    exact_cdf_dp,
    kernel_eval,
)
import lppdist.fredholm as fredholm_mod


def gen_binom(a, p):
    """Generalized binomial coefficient binom(a, p) for any integer a, p >= 0."""
    num = Fraction(1)
    for t in range(p):
        num *= a - t
    return num / math.factorial(p)


def a_oracle(q, m, n, j, x):
    """Exact a_j(x): residue at 1 of the defining integrand, plus the origin
    residue that appears once x drops to zero or below."""
    K = m - n + 1
    jk = j + K - 1
    total = Fraction(0)
    for t in range(j + 1):
        total += gen_binom(x - 1, j - t) * math.comb(jk, t) * q**t * (q - 1) ** (jk - t)
    if x <= 0:
        for s in range(min(jk, -x) + 1):
            total += (
                math.comb(jk, s)
                * q**s
                * Fraction(-1) ** (jk - s)
                * Fraction(-1) ** (j + 1)
                * math.comb(-x - s + j, j)
            )
    return (q - 1) * total


def b_oracle(q, m, n, j, y):
    """Exact b_j(y): the w = 0 residue, a finite rational series coefficient."""
    K = m - n + 1
    M = j + K
    if y <= 0:
        return Fraction(0)
    total = Fraction(0)
    for s in range(min(j, y - 1) + 1):
        t = y - 1 - s
        total += (
            math.comb(j, s)
            * Fraction(-1) ** (j - s)
            * Fraction(-1) ** M
            * math.comb(t + M - 1, t)
            * q**t
        )
    return total


CONFIGS = [
    (Fraction(1, 2), 3, 2),
    (Fraction(1, 3), 4, 3),
    (Fraction(2, 3), 3, 3),
]


class TestKernelSpec:
    def test_rejects_tall_grid(self):
        with pytest.raises(ValueError):
            KernelSpec(Fraction(1, 2), 2, 3)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            KernelSpec(Fraction(1, 2), 3, 2, variant="misprint")

    def test_default_contour_is_admissible(self, q_canon):
        spec = KernelSpec(q_canon, 4, 2)
        assert 1.0 < spec.cfg.r2 < spec.cfg.r1 < 1.0 / float(q_canon)

    def test_rejects_inadmissible_contour(self):
        cfg = ContourConfig(r2=1.2, r1=1.8)
        with pytest.raises(ValueError):
            KernelSpec(Fraction(2, 3), 3, 2, cfg=cfg)

    def test_offset_exponent(self):
        assert KernelSpec(Fraction(1, 2), 5, 2).K == 4

    def test_variant_changes_denominator_power_only_off_diagonal(self):
        assert KernelSpec(Fraction(1, 2), 5, 2).denominator_power == 5
        printed = KernelSpec(Fraction(1, 2), 5, 2, variant="printed")
        assert printed.denominator_power == 2
        square = KernelSpec(Fraction(1, 2), 3, 3, variant="printed")
        assert square.denominator_power == 3

    def test_family_index_bounds(self):
        spec = KernelSpec(Fraction(1, 2), 3, 2)
        with pytest.raises(ValueError):
            a_fn(spec, 2, 1)
        with pytest.raises(ValueError):
            b_fn(spec, -1, 1)


class TestFunctionFamilies:
    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_a_matches_residue_oracle(self, q, m, n):
        spec = KernelSpec(q, m, n)
        for j in range(n):
            for x in range(-2, 12):
                expect = float(a_oracle(q, m, n, j, x))
                assert abs(a_fn(spec, j, x) - expect) < 1e-10, (j, x)

    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_b_matches_residue_oracle(self, q, m, n):
        spec = KernelSpec(q, m, n)
        for j in range(n):
            for x in range(-2, 12):
                expect = float(b_oracle(q, m, n, j, x))
                assert abs(b_fn(spec, j, x) - expect) < 1e-10, (j, x)

    def test_b_vanishes_on_nonpositive_arguments(self):
        spec = KernelSpec(Fraction(1, 2), 4, 2)
        for j in range(2):
            for x in (0, -1, -3):
                assert abs(b_fn(spec, j, x)) < 1e-12

    def test_a_is_polynomial_of_exact_degree(self):
        # On x >= 1 the (j+1)-st difference kills a_j and the j-th difference
        # equals the constant (q-1)^(j+K); both hold exactly for the oracle.
        q, m, n = Fraction(1, 2), 4, 3
        K = m - n + 1
        for j in range(n):
            for x in range(1, 8):
                diff_top = sum(
                    (-1) ** (j + 1 - i) * math.comb(j + 1, i) * a_oracle(q, m, n, j, x + i)
                    for i in range(j + 2)
                )
                assert diff_top == 0
            diff_j = sum(
                (-1) ** (j - i) * math.comb(j, i) * a_oracle(q, m, n, j, 1 + i)
                for i in range(j + 1)
            )
            assert diff_j == (q - 1) ** (j + K)

    def test_a_quadrature_sees_the_degree(self):
        q, m, n = Fraction(1, 3), 4, 2
        spec = KernelSpec(q, m, n)
        j, K = 1, m - n + 1
        vals = [a_fn(spec, j, x) for x in range(1, 5)]
        second = [vals[i + 2] - 2 * vals[i + 1] + vals[i] for i in range(2)]
        assert all(abs(d) < 1e-9 for d in second)
        assert abs((vals[1] - vals[0]) - float((q - 1) ** (j + K))) < 1e-9

    def test_b_oracle_respects_contour_bound(self):
        # |b_j(x)| <= r1^(1-x) max|rest| straight from the integral estimate;
        # the exact coefficients must obey it for every admissible radius.
        q, m, n = Fraction(1, 2), 3, 2
        cfg = ContourConfig.for_q(q)
        w = cfg.r1 * np.exp(2j * np.pi * np.arange(4096) / 4096)
        for j in range(n):
            rest = np.abs((w - 1) ** j / (float(q) * w - 1) ** (j + m - n + 1))
            bound = float(np.max(rest))
            for x in range(1, 40):
                assert abs(float(b_oracle(q, m, n, j, x))) <= cfg.r1 ** (1 - x) * bound

    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_exact_biorthogonality_of_oracles(self, q, m, n):
        cutoff = 140
        for j in range(n):
            for k in range(n):
                total = sum(
                    (a_oracle(q, m, n, j, y) * b_oracle(q, m, n, k, y) for y in range(cutoff)),
                    Fraction(0),
                )
                assert abs(total - int(j == k)) < Fraction(1, 10**12)

    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_families_match_oracles_past_the_node_count(self, q, m, n):
        # With 16 starting nodes, x >= 16 reads the DFT at a wrapped index.
        spec = KernelSpec(q, m, n, cfg=ContourConfig.for_q(q, nodes=16))
        for j in range(n):
            for x in range(-2, 48):
                expect = float(a_oracle(q, m, n, j, x))
                assert abs(a_fn(spec, j, x) - expect) <= 1e-9 * max(1.0, abs(expect)), (j, x)
                expect = float(b_oracle(q, m, n, j, x))
                assert abs(b_fn(spec, j, x) - expect) <= 1e-9 * max(1.0, abs(expect)), (j, x)

    def test_radius_invariance_of_values(self):
        q, m, n = Fraction(1, 2), 4, 2
        base = KernelSpec(q, m, n, cfg=ContourConfig(r2=1.15, r1=1.85))
        alt = KernelSpec(q, m, n, cfg=ContourConfig(r2=1.4, r1=1.6))
        for j in range(n):
            assert abs(a_fn(base, j, 5) - a_fn(alt, j, 5)) < 1e-11
            assert abs(b_fn(base, j, 5) - b_fn(alt, j, 5)) < 1e-11


class TestChangeOfBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_c_matrix_is_unimodular_lower_triangular(self, n):
        c = c_matrix(n)
        for j in range(n):
            assert c[j][j] == 1
            for l in range(j + 1, n):
                assert c[j][l] == 0
        assert bareiss_determinant(c) == 1

    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_difference_powers_reconstruct_b_exactly(self, q, m, n):
        # sum_j (-1)^j (q-1)^-(j+K) Delta^j w_m(y-n) c[j][l] == b_l(y), as
        # exact rationals on both sides.
        K = m - n + 1
        c = c_matrix(n)
        for l in range(n):
            for y in range(0, 13):
                lhs = sum(
                    Fraction(-1) ** j
                    / (q - 1) ** (j + K)
                    * delta_neg_binomial(q, m, j, y - n)
                    * c[j][l]
                    for j in range(n)
                )
                assert lhs == b_oracle(q, m, n, l, y), (l, y)


class TestPairing:
    def test_truncated_pairing_approaches_identity(self):
        spec = KernelSpec(Fraction(1, 2), 4, 3)
        defect_small = np.max(np.abs(biorthogonal_pairing(spec, 30) - np.eye(3)))
        defect_large = np.max(np.abs(biorthogonal_pairing(spec, 160) - np.eye(3)))
        assert defect_large < 1e-10
        assert defect_large < defect_small

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            biorthogonal_pairing(KernelSpec(Fraction(1, 2), 2, 2), -1)


class TestDistributionRoutes:
    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_biorth_matches_exact_dp(self, q, m, n):
        spec = KernelSpec(q, m, n)
        for eta in range(0, 5):
            exact = float(exact_cdf_dp(q, m, n, eta))
            assert abs(cdf_biorth(spec, eta) - exact) < FLOAT_TOL

    @pytest.mark.parametrize("q,m,n", CONFIGS, ids=str)
    def test_fredholm_matches_exact_dp(self, q, m, n):
        spec = KernelSpec(q, m, n)
        for eta in (0, 2, 4):
            exact = float(exact_cdf_dp(q, m, n, eta))
            value, increment = cdf_fredholm(spec, eta)
            assert abs(value - exact) < FLOAT_TOL
            assert abs(increment) < 1e-10

    def test_kernel_is_the_rank_n_sum(self):
        q, m, n = Fraction(1, 2), 3, 2
        spec = KernelSpec(q, m, n)
        for (x, y) in [(0, 0), (1, 3), (4, 2), (0, 5)]:
            direct = kernel_eval(spec, x, y)
            ranksum = sum(
                float(a_oracle(q, m, n, j, x + n)) * float(b_oracle(q, m, n, j, y + n))
                for j in range(n)
            )
            assert abs(direct - ranksum) < 1e-10

    @pytest.mark.parametrize(
        "q,m,n,eta",
        [(q, m, n, 2) for q, m, n in CONFIGS]
        + [(Fraction(9, 10), 3, 2, 2), (Fraction(9, 10), 3, 2, 41), (Fraction(1, 3), 10, 6, 15)],
        ids=str,
    )
    def test_section_equals_exact_rank_n_sum(self, q, m, n, eta):
        spec = KernelSpec(q, m, n)
        size = 16
        section = fredholm_mod._kernel_section(spec, eta, size)
        c = math.sqrt(spec.cfg.r2 * spec.cfg.r1)
        offs = [eta + 1 + i for i in range(size)]
        a_rows = [[a_oracle(q, m, n, j, x + n) for j in range(n)] for x in offs]
        b_rows = [[b_oracle(q, m, n, j, y + n) for j in range(n)] for y in offs]
        for i, x in enumerate(offs):
            for k, y in enumerate(offs):
                kernel = sum((a * b for a, b in zip(a_rows[i], b_rows[k])), Fraction(0))
                exact = float(kernel) * c ** (y - x)
                assert abs(section[i, k] - exact) < 1e-12, (x, y)

    def test_negative_threshold(self):
        spec = KernelSpec(Fraction(1, 2), 3, 2)
        assert cdf_biorth(spec, -1) == 0.0
        with pytest.raises(ValueError):
            cdf_fredholm(spec, -1)

    def test_initial_size_at_section_cap_is_rejected(self, monkeypatch):
        # Starting at the cap left no second size to compare with.
        monkeypatch.setattr(fredholm_mod, "_SECTION_CAP", 64)
        spec = KernelSpec(Fraction(1, 2), 3, 2)
        with pytest.raises(ValueError, match="63"):
            cdf_fredholm(spec, 2, trunc=64)
        value, _ = cdf_fredholm(spec, 2, trunc=63)
        assert abs(value - float(exact_cdf_dp(Fraction(1, 2), 3, 2, 2))) < FLOAT_TOL

    def test_section_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fredholm_mod, "_SECTION_CAP", 8)
        spec = KernelSpec(Fraction(1, 2), 3, 2)
        with pytest.raises(QuadratureError):
            cdf_fredholm(spec, 2, trunc=4, tol=0.0)


class TestBoundedMemory:
    """The contour layer never builds a nodes x nodes array."""

    @staticmethod
    def peak_of(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_near_one_fredholm_stays_small(self):
        q, m, n, eta = Fraction(9, 10), 3, 2, 41
        (value, _), peak = self.peak_of(lambda: cdf_fredholm(KernelSpec(q, m, n), eta))
        assert abs(value - float(exact_cdf_dp(q, m, n, eta))) < FLOAT_TOL
        assert peak < 256 * 2**20

    def test_node_cap_refusal_has_bounded_memory(self):
        spec = KernelSpec(Fraction(99, 100), 3, 2)

        def refused():
            with pytest.raises(QuadratureError):
                cdf_fredholm(spec, 400)

        _, peak = self.peak_of(refused)
        assert peak < 64 * 2**20


class TestVariantAdjudication:
    def test_variant_tuple_is_public(self):
        assert VARIANTS == ("derivation", "printed")

    def test_printed_variant_needs_explicit_opt_in(self):
        spec = KernelSpec(Fraction(1, 2), 3, 1, variant="printed")
        with pytest.raises(ValueError):
            cdf_fredholm(spec, 2)

    def test_variants_coincide_on_square_grids(self):
        q, n, eta = Fraction(1, 2), 2, 2
        base = cdf_fredholm(KernelSpec(q, n, n), eta)
        printed = cdf_fredholm(KernelSpec(q, n, n, variant="printed"), eta, allow_printed=True)
        assert base == printed

    def test_printed_variant_fails_off_diagonal(self):
        q, m, n, eta = Fraction(1, 2), 3, 1, 2
        exact = float(exact_cdf_dp(q, m, n, eta))
        good, _ = cdf_fredholm(KernelSpec(q, m, n), eta)
        bad, _ = cdf_fredholm(KernelSpec(q, m, n, variant="printed"), eta, allow_printed=True)
        assert abs(good - exact) < FLOAT_TOL
        assert abs(bad - exact) > 1e-4

    def test_kernel_values_differ_off_diagonal(self):
        q, m, n = Fraction(1, 3), 4, 2
        derivation = kernel_eval(KernelSpec(q, m, n), 1, 1)
        printed = kernel_eval(KernelSpec(q, m, n, variant="printed"), 1, 1)
        assert abs(derivation - printed) > 1e-6
