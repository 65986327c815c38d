"""The biorthogonal families as batched rows, and the float-range guards of the contour route.

`_a_values` and `_b_values` return every row j < n from one node loop per
family, built by a running product on the half circle.  The oracle here is
the direct construction: one full-circle trapezoid sum per j, with each
integrand raised to its powers, on a fixed generous node count.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import lppdist.fredholm as fredholm_mod
from lppdist import CdfQuery, KernelSpec, PrecisionLossError, cdf_biorth, cdf_det, circle_nodes
from lppdist.weights import ROUNDOFF

ORACLE_NODES = 4096
QS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


def direct_rows(spec, j, xs):
    """(a_j, b_j) at xs and their roundoff floors, one full-circle sum per family."""
    qf, count = float(spec.q), ORACLE_NODES
    z = circle_nodes(spec.cfg.r2, count)
    w = circle_nodes(spec.cfg.r1, count)
    rest_a = (qf * z - 1.0) ** (j + spec.K - 1) / (z - 1.0) ** (j + 1)
    rest_b = (w - 1.0) ** j / (qf * w - 1.0) ** (j + spec.K)
    pow_a = spec.cfg.r2 ** xs.astype(float)
    pow_b = spec.cfg.r1 ** (1.0 - xs.astype(float))
    a = (qf - 1.0) * pow_a * np.fft.ifft(rest_a).real[xs % count]
    b = pow_b * np.fft.fft(rest_b).real[(xs - 1) % count] / count
    floors = (ROUNDOFF * pow_a * np.max(np.abs(rest_a)), ROUNDOFF * pow_b * np.max(np.abs(rest_b)))
    return (a, b), floors


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("extra", [0, 2], ids=["m=n", "m=n+2"])
def test_rows_match_the_direct_construction(q, n, extra):
    spec = KernelSpec(q, n + extra, n)
    xs = np.arange(-2, 40)
    rows = fredholm_mod._a_values(spec, xs), fredholm_mod._b_values(spec, xs)
    assert rows[0].shape == rows[1].shape == (n, xs.size)
    for j in range(n):
        expected, floors = direct_rows(spec, j, xs)
        for got, ref, floor in zip((rows[0][j], rows[1][j]), expected, floors):
            # Both are trapezoid sums: they agree to the stopping tolerance or
            # to the roundoff floor of their summands, whichever is coarser.
            allowed = np.maximum(1e-12 * np.maximum(1.0, np.abs(ref)), floor)
            assert np.all(np.abs(got - ref) <= allowed), (j, np.max(np.abs(got - ref) - allowed))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_one_biorth_call_runs_two_node_loops(monkeypatch, n):
    loops = []
    original = fredholm_mod._adaptive_batch

    def counting(*args, **kwargs):
        loops.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fredholm_mod, "_adaptive_batch", counting)
    cdf_biorth(KernelSpec(Fraction(1, 2), n + 1, n), 2 * n + 3)
    assert len(loops) == 2


class TestFloatRange:
    """Past the float range the contour route refuses with a typed error and no warning."""

    @staticmethod
    def refuses(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLossError):
                call()

    @pytest.mark.parametrize("eta", [4000, 10**12])
    def test_biorth_threshold_past_the_radius_power(self, eta):
        # r2^(eta+n) = 2^(4002/3) overflows; 10^12 would need (n, eta) arrays.
        self.refuses(lambda: cdf_biorth(KernelSpec(Fraction(1, 2), 2, 2), eta))

    def test_non_finite_biorth_determinant(self):
        self.refuses(lambda: cdf_biorth(KernelSpec(Fraction(1, 2), 100, 100), 480))

    def test_kernel_entry_past_the_radius_power(self):
        self.refuses(lambda: fredholm_mod.kernel_eval(KernelSpec(Fraction(1, 2), 2, 2), 5000, 5000))

    def test_threshold_below_the_radius_power_still_answers(self):
        # The DP cap refuses (1/2, 2, 2, 3000), so the exact reference is the
        # exact determinant, which the DP matches on every tested shape.
        q = Fraction(1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = cdf_biorth(KernelSpec(q, 2, 2), 3000)
        assert abs(value - float(cdf_det(CdfQuery(q, 2, 2, 3000)))) < 1e-8
