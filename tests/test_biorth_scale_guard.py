"""The a-side summand scale r2^x max|rest_j| overflows a little before r2^x itself.

In that band an infinite stopping scale would let the quadrature's agreement
test pass whatever the sums are.  The biorth route refuses it with a typed
error and no warning, and keeps answering just below it.
"""

import warnings
from fractions import Fraction

import pytest

from lppdist import KernelSpec, PrecisionLossError, cdf_biorth


@pytest.mark.parametrize("m, n, eta", [(2, 2, 3063), (2, 2, 3065), (2, 2, 3068), (4, 3, 3065),
                                       (8, 6, 3062)])
def test_overflowing_scale_is_refused_without_warning(m, n, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLossError, match="scale"):
            cdf_biorth(KernelSpec(Fraction(1, 2), m, n), eta)


@pytest.mark.parametrize("m, n, eta", [(2, 2, 3060), (2, 2, 3062), (4, 3, 3064), (8, 6, 3061)])
def test_threshold_just_below_the_band_still_answers(m, n, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = cdf_biorth(KernelSpec(Fraction(1, 2), m, n), eta)
    assert abs(value - 1.0) < 1e-8
