"""Kernel entries without numpy bookkeeping, with the same decisions and values.

`adaptive_batch` runs its stopping rule on `abs` and float comparisons when
a refinement hands it two Python floats, as `kernel_eval` does, and on
ufuncs otherwise; both rules must take the same decision everywhere,
NaN, infinities and the allowance boundaries included.  `kernel_eval`
resolves its per-call constants once and must still equal, bit for bit,
the series run through the array rule.  `GeometricParameter.coerce` keys
Fractions on their numerator and denominator and each parameter keeps its
hash and float, and `KernelSpec` validates its default config once per q.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import lppdist.fredholm as fredholm_mod
import lppdist.weights as weights_mod
from lppdist import (ContourConfig, GeometricParameter, KernelSpec, PrecisionLossError,
                     QuadratureError)
from lppdist.weights import ROUNDOFF, TOLERANCE, adaptive_batch

memo = fredholm_mod._TRANSFORMS


@pytest.fixture(autouse=True)
def cleared_memo():
    memo.clear()
    yield
    memo.clear()


def ulps(value: float) -> list[float]:
    """value and the floats one ulp below and above it."""
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


SPECIAL = [0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5, -2.5, 1e300]
SUMMANDS = [0.0, 1e-300, 1.0, 3.0e4, 1e300, math.inf, math.nan]


def rule_grid():
    """(cur, prev, summand) over specials, and differences one ulp either side
    of TOLERANCE max(1, |cur|) and of ROUNDOFF summand."""
    for cur, prev, summand in itertools.product(SPECIAL, SPECIAL, SUMMANDS):
        yield cur, prev, summand
    for cur, summand in itertools.product([0.0, 0.5, -1.0, 2.5, -7.0e3, 1e300], SUMMANDS):
        edges = [TOLERANCE * max(1.0, abs(cur))]
        if math.isfinite(summand):
            edges.append(float(ROUNDOFF) * summand)
        for edge in edges:
            for diff in ulps(edge):
                for sign in (1.0, -1.0):
                    yield cur, cur - sign * diff, summand


def test_float_and_array_rules_decide_alike():
    seen = set()
    count = 0
    for cur, prev, summand in rule_grid():
        fast = weights_mod._float_converged(cur, prev, summand)
        with np.errstate(invalid="ignore", over="ignore"):
            slow = weights_mod._array_converged(np.array([cur]), np.array([prev]),
                                                np.array([summand]))
        assert type(fast) is bool and type(slow) is bool
        assert fast is slow, (cur, prev, summand)
        seen.add(fast)
        count += 1
    assert seen == {True, False} and count > 1000


def test_boundaries_are_hit_exactly_at_zero():
    # At cur = 0 the difference is |prev|, exactly the float chosen.
    assert weights_mod._float_converged(0.0, TOLERANCE, 0.0)
    assert not weights_mod._float_converged(0.0, math.nextafter(TOLERANCE, 1.0), 0.0)
    floor = float(ROUNDOFF) * 3.0e4
    assert floor > TOLERANCE
    assert weights_mod._float_converged(0.0, -floor, 3.0e4)
    assert not weights_mod._float_converged(0.0, -math.nextafter(floor, 1.0), 3.0e4)


def test_nan_roundoff_refuses_like_np_maximum():
    # max(TOLERANCE, nan) is TOLERANCE in Python, but np.maximum gives NaN.
    assert not weights_mod._float_converged(0.0, 0.0, math.nan)
    assert not weights_mod._array_converged(np.zeros(1), np.zeros(1), np.array([math.nan]))
    assert not weights_mod._float_converged(math.nan, 0.0, 1.0)
    assert not weights_mod._float_converged(1.0, math.nan, 1.0)


def test_only_python_floats_take_the_float_rule(monkeypatch):
    calls = {"float": 0, "array": 0}
    float_rule, array_rule = weights_mod._float_converged, weights_mod._array_converged

    def count(name, rule):
        def counted(*args):
            calls[name] += 1
            return rule(*args)
        return counted

    monkeypatch.setattr(weights_mod, "_float_converged", count("float", float_rule))
    monkeypatch.setattr(weights_mod, "_array_converged", count("array", array_rule))
    spec = KernelSpec(Fraction(1, 2), 3, 2)
    fredholm_mod.kernel_eval(spec, 7, 3)
    checks = calls["float"]
    assert checks >= 1 and calls["array"] == 0
    fredholm_mod._a_values(spec, np.arange(4))
    assert calls["float"] == checks and calls["array"] >= 1
    # A numpy scalar is not a Python float: it keeps the ufunc rule.
    calls["array"] = 0
    adaptive_batch(lambda count: (np.float64(1.0), 1.0), 16)
    assert calls == {"float": checks, "array": 1}


# The q, shape and point grid of test_kernel_slices.py.
QS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(97, 100)]
SHAPES = [(2, 2), (3, 2), (5, 3)]
POINTS = [(0, 0), (7, 3), (250, 1), (253, 255), (300, 40), (600, 600), (5000, 5000)]


def array_rule_kernel(spec: KernelSpec, x: int, y: int) -> float:
    """K(x, y) from the memo builders, each refinement handed over as 1-element arrays."""
    qf, m, n, e = float(spec.q), spec.m, spec.n, spec.denominator_power
    r2, r1 = spec.cfg.r2, spec.cfg.r1
    rho = r2 / r1
    u, v = x + n, y + n
    powers = fredholm_mod._radius_power(r2, u) * fredholm_mod._radius_power(r1, -v)

    def evaluate(count: int):
        fhat, ghat, fmax, gmax, terms = fredholm_mod._full_circle_factors(qf, m, n, e, r2, r1, count)
        (weights,) = fredholm_mod._series_weights(rho, terms)
        i, j = u % count, v % count
        series = (fhat[i:i + terms] * weights) @ ghat[j:j + terms]
        value = powers * float(series / (1.0 - rho**count))
        return np.array([value]), np.array([powers * (fmax * gmax / (1.0 - rho))])

    return float(adaptive_batch(evaluate, spec.cfg.nodes)[0])


def outcome(call):
    try:
        return call()
    except (PrecisionLossError, QuadratureError) as exc:
        return type(exc)


@pytest.mark.parametrize("variant", ["derivation", "printed"])
@pytest.mark.parametrize("q", QS, ids=str)
def test_kernel_eval_equals_the_array_rule_bitwise(q, variant):
    floats = 0
    for m, n in SHAPES:
        spec = KernelSpec(q, m, n, variant=variant)
        for x, y in POINTS:
            got = outcome(lambda: fredholm_mod.kernel_eval(spec, x, y))
            expect = outcome(lambda: array_rule_kernel(spec, x, y))
            if isinstance(expect, float):
                assert isinstance(got, float), (m, n, x, y, got)
                assert np.float64(got).tobytes() == np.float64(expect).tobytes(), (m, n, x, y)
                floats += 1
            else:
                assert got is expect, (m, n, x, y, got)
    assert floats


def test_coerce_keys_a_fraction_on_its_terms():
    half = GeometricParameter.coerce(Fraction(1, 2))
    assert GeometricParameter.coerce(Fraction(2, 4)) is half
    with pytest.raises(TypeError):
        GeometricParameter.coerce(0.5)
    assert GeometricParameter.coerce(Fraction(1, 2)) is half
    assert GeometricParameter.coerce("1/2") == half


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(0), Fraction(1), Fraction(-1, 3), "7/5", 2])
def test_invalid_q_raises_on_every_call(bad):
    for _ in range(3):
        with pytest.raises(ValueError):
            GeometricParameter.coerce(bad)
        with pytest.raises(ValueError):
            KernelSpec(bad, 2, 2)


def test_equal_parameters_hash_alike_as_the_dataclass_would():
    value = Fraction(7, 11)
    params = [GeometricParameter(value), GeometricParameter("7/11"), GeometricParameter(Fraction(14, 22)),
              GeometricParameter.coerce(value), GeometricParameter.coerce("7/11")]
    for p in params:
        assert p == params[0]
        assert hash(p) == hash((value,))
        assert float(p) == float(value)
    assert len(set(params)) == 1
    assert hash(GeometricParameter(Fraction(1, 3))) != hash(params[0])


def test_default_config_is_shared_and_an_explicit_one_is_checked_every_time():
    q = Fraction(1, 2)
    spec = KernelSpec(q, 3, 2)
    assert spec.cfg is ContourConfig.for_q(q)
    assert KernelSpec(Fraction(2, 4), 2, 2).cfg is spec.cfg
    for r1 in (2.0, 2.5):
        for _ in range(2):
            with pytest.raises(ValueError, match="outer radius"):
                KernelSpec(q, 3, 2, cfg=ContourConfig(r2=1.5, r1=r1))
    inside = ContourConfig(r2=1.5, r1=math.nextafter(2.0, 0.0))
    assert KernelSpec(q, 3, 2, cfg=inside).cfg is inside
