"""Fredholm sections assembled from two 1-D factor sequences.

The reference is the series build the sequences replaced: one blocked
size x size x P product of gathered DFT entries per node refinement, kept
here as a test-local copy.  Both evaluate the same double trapezoid sum, so
they agree to roundoff.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import FLOAT_TOL
from lppdist import KernelSpec, QuadratureError, cdf_fredholm, circle_nodes, exact_cdf_dp
from lppdist.weights import adaptive_batch
import lppdist.fredholm as fredholm_mod


def series_section(spec, eta, size):
    """The section as D A diag(rho^p) B^T D / (1 - rho^N), one dgemm per block."""
    qf = float(spec.q)
    r2, r1 = spec.cfg.r2, spec.cfg.r1
    rho = r2 / r1
    c = math.sqrt(r2 * r1)
    offs = eta + 1 + np.arange(size) + spec.n
    decay = (r2 / c) ** offs.astype(float)
    conj = np.outer(decay, decay)
    eps = np.finfo(float).eps

    def evaluate(count):
        z = circle_nodes(r2, count)
        w = circle_nodes(r1, count)
        fz = (1.0 - qf * z) ** spec.m / (1.0 - z) ** spec.n
        gw = (1.0 - w) ** spec.n / (1.0 - qf * w) ** spec.denominator_power
        fhat = np.fft.ifft(fz).real
        ghat = np.fft.fft(gw).real / count
        terms = min(count, math.ceil(math.log(eps * (1.0 - rho)) / math.log(rho)))
        step = max(1, (1 << 20) // size)
        series = np.zeros((size, size))
        for start in range(0, terms, step):
            p = np.arange(start, min(start + step, terms))
            left = fhat[(offs[:, None] + p) % count] * rho**p
            series += left @ ghat[(offs[:, None] + p) % count].T
        bound = float(np.max(np.abs(fz))) * float(np.max(np.abs(gw))) / (1.0 - rho)
        return conj * series / (1.0 - rho**count), bound * conj

    return adaptive_batch(evaluate, spec.cfg.nodes)


def factor_sequences(spec, eta, length, count=8192):
    """F(u) and G(u) for u = o_0, ..., o_0 + length - 1 from one DFT of each factor."""
    qf = float(spec.q)
    r2, r1 = spec.cfg.r2, spec.cfg.r1
    us = eta + 1 + spec.n + np.arange(length)
    half = (r2 / r1) ** (us / 2.0)
    z = circle_nodes(r2, count)
    w = circle_nodes(r1, count)
    fz = (1.0 - qf * z) ** spec.m / (1.0 - z) ** spec.n
    gw = (1.0 - w) ** spec.n / (1.0 - qf * w) ** spec.denominator_power
    return half * np.fft.ifft(fz).real[us], half * np.fft.fft(gw).real[us] / count


SECTION_CASES = [
    (Fraction(1, 3), 4, 3, 2, 64, "derivation"),
    (Fraction(1, 3), 10, 6, 15, 16, "printed"),
    (Fraction(1, 2), 6, 4, 8, 256, "derivation"),
    (Fraction(1, 2), 3, 1, 2, 32, "printed"),
    (Fraction(2, 3), 5, 3, 10, 128, "printed"),
    (Fraction(2, 3), 8, 5, 49, 512, "derivation"),
    (Fraction(9, 10), 3, 2, 41, 1024, "derivation"),
    (Fraction(9, 10), 6, 4, 2, 64, "printed"),
]


def peak_of(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestSectionAssembly:
    @pytest.mark.parametrize("q,m,n,eta,size,variant", SECTION_CASES, ids=str)
    def test_matches_series_build(self, q, m, n, eta, size, variant):
        spec = KernelSpec(q, m, n, variant=variant)
        expect = series_section(spec, eta, size)
        section = fredholm_mod._kernel_section(spec, eta, size)
        assert section.shape == (size, size)
        assert np.max(np.abs(section - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("q,m,n,eta,size,variant", SECTION_CASES[:6], ids=str)
    def test_displacement_is_one_outer_product(self, q, m, n, eta, size, variant):
        spec = KernelSpec(q, m, n, variant=variant)
        section = fredholm_mod._kernel_section(spec, eta, size)
        f, g = factor_sequences(spec, eta, size)
        displacement = section[:-1, :-1] - section[1:, 1:]
        scale = np.max(np.abs(section))
        assert np.max(np.abs(displacement - np.outer(f[:-1], g[:-1]))) <= 1e-14 * scale

    def test_near_one_fredholm_peak_is_small(self):
        q, m, n, eta = Fraction(9, 10), 3, 2, 41
        (value, _), peak = peak_of(lambda: cdf_fredholm(KernelSpec(q, m, n), eta))
        assert abs(value - float(exact_cdf_dp(q, m, n, eta))) < FLOAT_TOL
        assert peak < 32 * 2**20

    def test_long_series_section_builds_no_size_by_terms_array(self):
        spec = KernelSpec(Fraction(97, 100), 3, 2)
        size = 2048
        terms = fredholm_mod._series_terms(spec)
        assert 3900 < terms < 4100
        section, peak = peak_of(lambda: fredholm_mod._kernel_section(spec, 40, size))
        assert np.all(np.isfinite(section))
        # The section itself is size^2 floats; one size x P float array would add more than it.
        assert peak < 8 * size * size + 8 * size * terms // 2
        f, g = factor_sequences(spec, 40, size + terms - 1)
        corner = np.correlate(g, f[size - 1:], "valid")
        assert np.max(np.abs(section[-1] - corner)) <= 1e-14 * np.max(np.abs(section))

    def test_node_cap_refusal_is_fast_and_small(self):
        spec = KernelSpec(Fraction(99, 100), 3, 2)

        def refused():
            start = time.perf_counter()
            with pytest.raises(QuadratureError):
                cdf_fredholm(spec, 41)
            return time.perf_counter() - start

        elapsed, peak = peak_of(refused)
        assert elapsed < 2.0
        assert peak < 8 * 2**20
