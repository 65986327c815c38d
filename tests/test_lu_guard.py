"""The chain determinants answer exactly, and their refusals share one type.

The float LU layer these checks once guarded is gone: `cdf_det` and
`transition_det` return exact Fractions, and a caller who wants a float takes
`float(...)` of the exact value.
"""

from fractions import Fraction

import lppdist
from lppdist import PrecisionLossError, TransitionQuery, transition_det


def test_error_class_is_shared():
    assert lppdist.PrecisionLossError is lppdist.weights.PrecisionLossError
    assert lppdist.meixner.PrecisionLossError is PrecisionLossError


def test_zero_transition_is_exact_zero():
    tq = TransitionQuery(Fraction(1, 2), 3, (0, 5), (1, 4))
    assert transition_det(tq) == 0
    assert float(transition_det(tq)) == 0.0
