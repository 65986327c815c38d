"""Float routes refuse answers they cannot stand behind.

`cdf_biorth` and `cdf_fredholm` declare an absolute tolerance of 1e-8, so a
value further than that outside [0, 1] is wrong by more than the tolerance
and ends in PrecisionLossError.  An overflow, or an underflow to a zero
divisor, while the Fredholm factors are built ends the same way, as a typed
error, never as a RuntimeWarning.
"""

import math
import warnings
from fractions import Fraction

import pytest

from lppdist import KernelSpec, cdf_biorth, cdf_fredholm
from lppdist.cli import main
from lppdist.fredholm import _probability
from lppdist.weights import PrecisionLossError

#: Shapes where the biorth pairing determinant is 1.486 and 2.39e282.
BIORTH_OUT_OF_RANGE = [(Fraction(9, 10), 15, 5, 344), (Fraction(1, 3), 100, 10, 87)]
#: A Fredholm query whose factor products overflow a float.
FREDHOLM_OVERFLOW = (Fraction(9, 10), 200, 5, 1956)
#: A Fredholm query whose contour factor (1 - qw)^500 underflows to a zero divisor.
FREDHOLM_UNDERFLOW = (Fraction(1, 2), 500, 500, 2414)


@pytest.mark.parametrize("shape", BIORTH_OUT_OF_RANGE, ids=str)
def test_biorth_refuses_a_value_outside_the_unit_interval(shape):
    q, m, n, eta = shape
    with pytest.raises(PrecisionLossError, match=r"outside \[0, 1\]"):
        cdf_biorth(KernelSpec(q, m, n), eta)


def test_fredholm_overflow_is_a_precision_loss_under_warnings_as_errors():
    for q, m, n, eta in (FREDHOLM_OVERFLOW, FREDHOLM_UNDERFLOW):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLossError, match="float range"):
                cdf_fredholm(KernelSpec(q, m, n), eta)


@pytest.mark.parametrize("value", [-2e-8, 1 + 2e-8, 2.39e282, math.inf, -math.inf, math.nan])
def test_probability_guard_refuses(value):
    with pytest.raises(PrecisionLossError):
        _probability(value, "value")


@pytest.mark.parametrize("value", [-1e-8, 0.0, 0.5, 1.0, 1 + 1e-8])
def test_probability_guard_passes_values_within_the_tolerance(value):
    assert _probability(value, "value") == value


@pytest.mark.parametrize("command, shape", [
    *[("cdf-biorth", shape) for shape in BIORTH_OUT_OF_RANGE],
    ("cdf-fredholm", FREDHOLM_OVERFLOW),
    ("cdf-fredholm", FREDHOLM_UNDERFLOW),
], ids=str)
def test_cli_exits_one_with_a_message(command, shape, capsys):
    q, m, n, eta = shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main([command, "--q", str(q), "--m", str(m), "--n", str(n), "--eta", str(eta)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert "error: method" in captured.err and "Traceback" not in captured.err
