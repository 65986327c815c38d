"""Kernel entries read their series from two slices of the memo.

`kernel_eval` sums the geometric series of `_cauchy_series` over the P
entries of each factor transform from u mod N and v mod N on, read as
contiguous slices of transforms extended by their first P entries, with
the weights rho^p kept in the memo.  Every value must equal, bit for bit,
the series gathered at (u + p) mod N with rho^p built per node count, or
both must raise the same typed error.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import lppdist.fredholm as fredholm_mod
from lppdist import KernelSpec, PrecisionLossError, QuadratureError, circle_nodes
from lppdist.weights import adaptive_batch

memo = fredholm_mod._TRANSFORMS


@pytest.fixture(autouse=True)
def cleared_memo():
    memo.clear()
    yield
    memo.clear()

QS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(97, 100)]
SHAPES = [(2, 2), (3, 2), (5, 3)]
# With N = 256 start nodes: x near 255 puts u mod N + P past N, x = 300 and
# 600 put u past N, and 0 and 7 stay clear of both.  At 5000 the radius
# powers overflow a float for q = 1/3 and 1/2.
POINTS = [(0, 0), (7, 3), (250, 1), (253, 255), (300, 40), (600, 600), (5000, 5000)]


def gathered_terms(rho: float) -> int:
    eps = np.finfo(float).eps
    return math.ceil(math.log(eps * (1.0 - rho)) / math.log(rho))


def gathered_kernel(spec: KernelSpec, x: int, y: int) -> float:
    """K(x, y) with the series gathered at (u + p) mod N and rho^p rebuilt per node count."""
    qf, m, n, e = float(spec.q), spec.m, spec.n, spec.denominator_power
    r2, r1 = spec.cfg.r2, spec.cfg.r1
    rho = r2 / r1
    u, v = x + n, y + n
    powers = fredholm_mod._radius_power(r2, u) * fredholm_mod._radius_power(r1, -v)

    def evaluate(count: int):
        z, w = circle_nodes(r2, count), circle_nodes(r1, count)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                fz = (1.0 - qf * z) ** m / (1.0 - z) ** n
                gw = (1.0 - w) ** n / (1.0 - qf * w) ** e
            except FloatingPointError as exc:
                raise PrecisionLossError("factor leaves the float range") from exc
        fhat = np.fft.ifft(fz).real.copy()
        ghat = np.fft.fft(gw).real / count
        p = np.arange(min(count, gathered_terms(rho)))
        series = (fhat[(u + p) % count] * rho**p) @ ghat[(v + p) % count]
        bound = float(np.max(np.abs(fz))) * float(np.max(np.abs(gw))) / (1.0 - rho)
        return powers * float(series / (1.0 - rho**count)), powers * bound

    return float(adaptive_batch(evaluate, spec.cfg.nodes))


def outcome(call):
    try:
        return call()
    except (PrecisionLossError, QuadratureError) as exc:
        return type(exc)


@pytest.mark.parametrize("variant", ["derivation", "printed"])
@pytest.mark.parametrize("q", QS, ids=str)
def test_sliced_series_equals_the_gathered_one_bitwise(q, variant):
    for m, n in SHAPES:
        spec = KernelSpec(q, m, n, variant=variant)
        for x, y in POINTS:
            got = outcome(lambda: fredholm_mod.kernel_eval(spec, x, y))
            expect = outcome(lambda: gathered_kernel(spec, x, y))
            if isinstance(expect, float):
                assert isinstance(got, float), (m, n, x, y, got)
                assert np.float64(got).tobytes() == np.float64(expect).tobytes(), (m, n, x, y)
            else:
                assert got is expect, (m, n, x, y, got)


def test_cases_reach_the_wrapping_and_full_length_series():
    half = KernelSpec(Fraction(1, 2), 3, 2)
    terms = fredholm_mod._series_terms(half)
    assert terms < 256 < (250 + half.n) % 256 + terms
    assert (600 + half.n) >= 256
    near_one = KernelSpec(Fraction(9, 10), 3, 2)
    fhat, ghat, _, _, length = fredholm_mod._factor_transforms(near_one, 256)
    assert length == 256 < fredholm_mod._series_terms(near_one)
    assert fhat.shape == ghat.shape == (512,)
    assert np.array_equal(fhat[256:], fhat[:256]) and np.array_equal(ghat[256:], ghat[:256])


def test_weights_are_built_once_per_ratio_and_length():
    spec = KernelSpec(Fraction(1, 2), 3, 2)
    for x, y in POINTS[:-1]:
        fredholm_mod.kernel_eval(spec, x, y)
    other = KernelSpec(Fraction(1, 2), 5, 3, variant="printed")
    fredholm_mod.kernel_eval(other, 4, 4)
    weights = [args for build, args in memo._entries if build is fredholm_mod._series_weights]
    # One ratio, and P = _series_terms below every node count tried: one entry.
    assert weights == [(spec.cfg.r2 / spec.cfg.r1, fredholm_mod._series_terms(spec))]


def test_memo_entries_weights_included_stay_read_only():
    spec = KernelSpec(Fraction(9, 10), 3, 2)
    fredholm_mod.kernel_eval(spec, 250, 3)
    fredholm_mod._kernel_section(spec, 41, 16)
    builders = {build for build, _ in memo._entries}
    assert {fredholm_mod._full_circle_factors, fredholm_mod._series_weights} <= builders
    arrays = [part for entry, _ in memo._entries.values() for part in entry
              if isinstance(part, np.ndarray)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[-1] = 0.0
