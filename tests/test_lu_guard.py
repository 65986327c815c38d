"""The float determinant layer refuses what its conditioning cannot support."""

from fractions import Fraction

import pytest

import lppdist
from lppdist import CdfQuery, PrecisionLossError, TransitionQuery, cdf_det, transition_det
from lppdist.detformulas import LU_TOLERANCE


def test_error_class_is_shared():
    assert lppdist.PrecisionLossError is lppdist.weights.PrecisionLossError
    assert lppdist.meixner.PrecisionLossError is PrecisionLossError


@pytest.mark.parametrize("n,eta", [(20, 97), (40, 193)])
def test_large_cdf_refuses(n, eta):
    # Plain LU was off by 4e-7 at n = 20 and 1.6e44 at n = 40 here, unannounced.
    with pytest.raises(PrecisionLossError, match="exact=True"):
        cdf_det(CdfQuery(Fraction(1, 2), n, n, eta), exact=False)


def test_large_transition_refuses():
    x = tuple(range(40))
    y = tuple(2 * v + 40 for v in x)
    with pytest.raises(PrecisionLossError):
        transition_det(TransitionQuery(Fraction(1, 2), 40, x, y), exact=False)


@pytest.mark.parametrize("n,eta", [(6, 29), (10, 48), (14, 68)])
def test_accepted_values_meet_the_tolerance(n, eta):
    cq = CdfQuery(Fraction(1, 2), n, n, eta)
    assert abs(cdf_det(cq, exact=False) - float(cdf_det(cq))) < LU_TOLERANCE


def test_zero_transition_is_exact_zero():
    tq = TransitionQuery(Fraction(1, 2), 3, (0, 5), (1, 4))
    assert transition_det(tq) == 0
    assert transition_det(tq, exact=False) == 0.0
