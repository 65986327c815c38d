"""Fredholm determinants on the leading block of the section that carries them.

`cdf_fredholm` takes det(I - C) on the leading k x k block of each section,
with k from a trace-norm bound on C = H_f H_g^T.  The references here are the
full section of `_kernel_section` and the bound recomputed from the plain
row norms of the two Hankel factors.
"""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import FLOAT_TOL
from lppdist import KernelSpec, QuadratureError, cdf_fredholm, exact_cdf_dp
import lppdist.fredholm as fredholm_mod

EPS = np.finfo(float).eps

# (q, m, n, eta, size, tau < 1); every case cuts below its size.
CUT_CASES = [
    (Fraction(1, 3), 3, 2, 2, 64, True),
    (Fraction(1, 3), 3, 2, 0, 128, False),
    (Fraction(1, 3), 12, 12, 30, 256, True),
    (Fraction(1, 2), 1, 1, 0, 64, True),
    (Fraction(1, 2), 6, 4, 8, 256, False),
    (Fraction(1, 2), 10, 6, 15, 512, False),
    (Fraction(2, 3), 1, 1, 0, 128, True),
    (Fraction(2, 3), 3, 2, 2, 256, False),
    (Fraction(2, 3), 8, 5, 49, 512, True),
    (Fraction(9, 10), 3, 2, 41, 512, True),
    (Fraction(9, 10), 3, 2, 41, 1024, True),
    (Fraction(9, 10), 3, 1, 2, 1024, False),
]


def plain_tail_norms(seq, size):
    """A_k = (sum_{k <= i < size} ||seq[i:]||^2)^(1/2) for k = 0..size, unscaled."""
    rows = np.array([np.linalg.norm(seq[i:]) ** 2 for i in range(size)] + [0.0])
    return np.sqrt(np.cumsum(rows[::-1])[::-1])


def plain_bound(f, g, size):
    """The cut bound at every k, and tau, from the plain norms."""
    a, b = plain_tail_norms(f, size), plain_tail_norms(g, size)
    tau = a[0] * b[0]
    if tau < 1.0:
        return a * b / (1.0 - tau), tau
    return a[0] * b + a * b[0] + a * b, tau


def cut_det(spec, eta, size):
    block = fredholm_mod._kernel_section(spec, eta, size, cut=True)
    return np.linalg.det(np.eye(len(block)) - block), len(block)


@pytest.mark.parametrize("q,m,n,eta,size,below_one", CUT_CASES, ids=str)
def test_cut_determinant_equals_full_section(q, m, n, eta, size, below_one):
    spec = KernelSpec(q, m, n)
    full = fredholm_mod._kernel_section(spec, eta, size)
    expect = np.linalg.det(np.eye(size) - full)
    value, k = cut_det(spec, eta, size)
    assert k < size
    assert abs(value - expect) <= 1e-14 * abs(expect)
    f, g = fredholm_mod._section_factors(spec, eta, size)
    assert (plain_bound(f, g, size)[1] < 1.0) == below_one


@pytest.mark.parametrize("q,m,n,eta,size,below_one", CUT_CASES, ids=str)
def test_cut_is_the_first_index_under_eps(q, m, n, eta, size, below_one):
    spec = KernelSpec(q, m, n)
    f, g = fredholm_mod._section_factors(spec, eta, size)
    k = fredholm_mod._section_cut(f, g, size)
    bound, _ = plain_bound(f, g, size)
    assert 1 <= k <= size
    assert bound[k] <= EPS * (1 + 1e-12)
    assert bound[k - 1] > EPS * (1 - 1e-12)


@pytest.mark.parametrize("q,m,n,eta,size,below_one", CUT_CASES[::3], ids=str)
def test_block_is_the_leading_block_of_the_section(q, m, n, eta, size, below_one):
    spec = KernelSpec(q, m, n)
    full = fredholm_mod._kernel_section(spec, eta, size)
    block = fredholm_mod._kernel_section(spec, eta, size, cut=True)
    k = len(block)
    assert np.max(np.abs(block - full[:k, :k])) <= 1e-14 * np.max(np.abs(full))


@pytest.mark.parametrize("power", [600, -600])
def test_cut_ignores_an_exact_rescaling_of_the_factors(power):
    # f 2^p, g 2^-p leave C unchanged; squaring 2^600 alone overflows a float.
    spec = KernelSpec(Fraction(9, 10), 3, 2)
    f, g = fredholm_mod._section_factors(spec, 41, 512)
    k = fredholm_mod._section_cut(f, g, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = fredholm_mod._section_cut(np.ldexp(f, power), np.ldexp(g, -power), 512)
    assert scaled == k


@pytest.mark.parametrize("power", [-300, -600])
def test_cut_of_factors_whose_product_is_below_eps(power):
    # f 2^p, g 2^p shrink C by 2^(2p), far under eps; at p = -600 the product
    # of the two factor maxima underflows to 0.
    spec = KernelSpec(Fraction(9, 10), 3, 2)
    f, g = fredholm_mod._section_factors(spec, 41, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = fredholm_mod._section_cut(np.ldexp(f, power), np.ldexp(g, power), 512)
    assert k == 1


@pytest.mark.parametrize("eta", [3200, 4000, 5000])
def test_far_threshold_with_underflowing_factor_maxima_gives_one(eta):
    # At q = 1/2, (2, 2) both factor maxima are below 1e-162 here, so their
    # product underflows to 0, while each maximum is still nonzero.
    spec = KernelSpec(Fraction(1, 2), 2, 2)
    f, g = fredholm_mod._section_factors(spec, eta, 16)
    assert np.max(np.abs(f)) > 0 and np.max(np.abs(g)) > 0
    assert np.max(np.abs(f)) * np.max(np.abs(g)) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _ = cdf_fredholm(spec, eta)
    assert abs(value - 1.0) <= EPS


def test_long_section_near_one_cuts_without_warnings():
    spec = KernelSpec(Fraction(97, 100), 3, 2)
    size = 2048
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, k = cut_det(spec, 40, size)
        f, g = fredholm_mod._section_factors(spec, 40, size)
        assert fredholm_mod._section_cut(f, g, size) == k
    assert k <= size
    assert np.isfinite(value)
    bound, _ = plain_bound(f, g, size)
    assert bound[k] <= EPS * (1 + 1e-12)


def test_near_one_fredholm_peak_is_under_8_mib():
    q, m, n, eta = Fraction(9, 10), 3, 2, 41
    tracemalloc.start()
    try:
        value, _ = cdf_fredholm(KernelSpec(q, m, n), eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - float(exact_cdf_dp(q, m, n, eta))) < FLOAT_TOL
    assert peak < 8 * 2**20


def test_node_cap_refusal_still_raises():
    with pytest.raises(QuadratureError):
        cdf_fredholm(KernelSpec(Fraction(99, 100), 3, 2), 41)


def test_zero_tolerance_still_ends_at_the_cap(monkeypatch):
    sizes = []
    section = fredholm_mod._kernel_section

    def spy(spec, eta, size, **kwargs):
        sizes.append(size)
        return section(spec, eta, size, **kwargs)

    monkeypatch.setattr(fredholm_mod, "_kernel_section", spy)
    with pytest.raises(QuadratureError, match="within size 2048"):
        cdf_fredholm(KernelSpec(Fraction(1, 2), 3, 2), 2, tol=0.0)
    assert sizes == [16, 32, 64, 128, 256, 512, 1024, 2048]
