"""The contour transforms are built once per model and node count and reused.

Every evaluator reads its transforms from one byte-bounded memo; the radius
powers, gathers and stopping scales stay per call.  So a warm memo gives the
same bytes as a cold one, whichever other models and variants filled it, its
entries cannot be written into, it never keeps more than its budget, and the
overflow refusals still fire on a warm memo.
"""

import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import lppdist.fredholm as fredholm_mod
from lppdist import KernelSpec, PrecisionLossError, cdf_biorth, cdf_fredholm

memo = fredholm_mod._TRANSFORMS

QS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]
# (3, 2) and (4, 2) share n and the radii but not K; (4, 2) and (4, 4) share m.
SHAPES = [(2, 2), (3, 2), (4, 2), (4, 4), (5, 3)]
XS = np.arange(9)


@pytest.fixture(autouse=True)
def cleared_memo():
    memo.clear()
    yield
    memo.clear()


def evaluations(q, m, n):
    """(label, call) for every evaluator on one model, both variants when m != n."""
    variants = ("derivation", "printed") if m != n else ("derivation",)
    calls = []
    for variant in variants:
        spec = KernelSpec(q, m, n, variant=variant)
        calls += [
            (f"{variant} kernel_eval", lambda s=spec: [fredholm_mod.kernel_eval(s, x, y)
                                                       for x, y in ((0, 0), (2, 5), (6, 1))]),
            (f"{variant} section", lambda s=spec: fredholm_mod._kernel_section(s, 4, 16)),
            (f"{variant} fredholm", lambda s=spec: cdf_fredholm(s, 5, allow_printed=True)),
        ]
    spec = KernelSpec(q, m, n)
    calls += [
        ("a", lambda: fredholm_mod._a_values(spec, XS)),
        ("b", lambda: fredholm_mod._b_values(spec, XS)),
        ("biorth", lambda: cdf_biorth(spec, 5)),
    ]
    return calls


def as_bytes(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("q", QS, ids=str)
def test_warm_memo_returns_the_cold_bytes(q):
    calls = [(f"{m},{n} {label}", call) for m, n in SHAPES for label, call in evaluations(q, m, n)]
    cold = {}
    for label, call in calls:
        memo.clear()
        cold[label] = as_bytes(call())
    # Every model and variant of this q now shares the memo: an entry keyed
    # without K, n or the w-exponent would be served to the wrong model.
    for _ in range(2):
        for label, call in calls:
            assert as_bytes(call()) == cold[label], label
    assert len(memo) > 0


def test_entries_are_read_only():
    spec = KernelSpec(Fraction(1, 2), 3, 2)
    fredholm_mod.kernel_eval(spec, 1, 1)
    fredholm_mod._a_values(spec, XS)
    fredholm_mod._b_values(spec, XS)
    arrays = [part for entry, _ in memo._entries.values() for part in entry
              if isinstance(part, np.ndarray)]
    assert len(arrays) >= 6
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_sweep_past_the_budget_keeps_at_most_the_budget():
    r2 = KernelSpec(Fraction(1, 2), 2, 2).cfg.r2
    built = 0
    for n in range(1, 40):
        table, _ = memo.get(fredholm_mod._a_family, 0.5, 1, n, r2, 8192)
        built += table.nbytes
        kept = sum(size for _, size in memo._entries.values())
        assert memo.nbytes == kept <= fredholm_mod._MEMO_BUDGET
    assert built > 4 * fredholm_mod._MEMO_BUDGET
    # The newest entry survives eviction.
    assert (fredholm_mod._a_family, (0.5, 1, 39, r2, 8192)) in memo._entries


def test_entry_over_the_budget_is_returned_but_not_kept():
    r2 = KernelSpec(Fraction(1, 2), 2, 2).cfg.r2
    memo.get(fredholm_mod._a_family, 0.5, 1, 3, r2, 256)
    before = dict(memo._entries)
    table, row_max = memo.get(fredholm_mod._a_family, 0.5, 1, 200, r2, 8192)
    assert table.nbytes > fredholm_mod._MEMO_BUDGET
    assert table.shape == (200, 8192) and row_max.shape == (200, 1)
    assert dict(memo._entries) == before


def test_least_recently_used_entry_goes_first():
    small = fredholm_mod._TransformMemo(budget=3 * 8 * 10)
    built = []

    def build(tag):
        built.append(tag)
        return (np.zeros(10),)

    for tag in "abc":
        small.get(build, tag)
    small.get(build, "a")
    small.get(build, "d")
    assert built == list("abcd")
    assert [args for _, args in small._entries] == [("c",), ("a",), ("d",)]
    assert small.nbytes == 3 * 8 * 10


def refuses_twice(call, match):
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLossError, match=match):
                call()


def test_biorth_scale_refusal_fires_on_a_warm_memo():
    spec = KernelSpec(Fraction(1, 2), 2, 2)
    refuses_twice(lambda: cdf_biorth(spec, 3063), "scale overflows a float")
    assert len(memo) > 0


def test_kernel_entry_refusal_fires_on_a_warm_memo():
    spec = KernelSpec(Fraction(1, 2), 2, 2)
    fredholm_mod.kernel_eval(spec, 1, 1)
    refuses_twice(lambda: fredholm_mod.kernel_eval(spec, 5000, 5000), "overflows a float")


def test_six_kernel_entries_build_each_circle_once(monkeypatch):
    original = fredholm_mod.circle_nodes
    builds = Counter()

    def spy(radius, count):
        builds[radius, count] += 1
        return original(radius, count)

    monkeypatch.setattr(fredholm_mod, "circle_nodes", spy)
    spec = KernelSpec(Fraction(2, 3), 4, 3)
    for x, y in ((0, 0), (0, 3), (2, 1), (4, 4), (7, 2), (9, 9)):
        fredholm_mod.kernel_eval(spec, x, y)
    assert builds and set(builds.values()) == {1}
    assert {radius for radius, _ in builds} == {spec.cfg.r2, spec.cfg.r1}
