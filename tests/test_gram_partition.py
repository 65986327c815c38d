"""The Gram route divides the box Gram determinant by the exact partition function.

Z comes from `partition_function`, so no moment is summed beyond the box: q
near 1 and high working precision answer quickly, boxes beyond 10^6 sites
refuse before any moment is summed, and every answered query computes Z
exactly once, after the box matrix has passed its checks.
"""

import time
from fractions import Fraction

import mpmath
import pytest

import lppdist.cli as cli
import lppdist.meixner as meixner
from lppdist import (
    MeixnerEnsembleQuery,
    PrecisionLossError,
    meixner_cdf_bruteforce,
    meixner_cdf_gram,
)


def assert_matches_bruteforce(query, precision, digits):
    exact = meixner_cdf_bruteforce(query)
    started = time.perf_counter()
    value = meixner_cdf_gram(query, precision=precision)
    elapsed = time.perf_counter() - started
    with mpmath.workdps(precision + 20):
        reference = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(value - reference) < mpmath.mpf(10) ** (-digits)
    return elapsed


def test_q_near_one_matches_bruteforce_quickly():
    query = MeixnerEnsembleQuery(Fraction(99, 100), 3, 3, 5)
    assert assert_matches_bruteforce(query, 50, 45) < 1.0


def test_high_precision_matches_bruteforce_quickly():
    query = MeixnerEnsembleQuery(Fraction(1, 2), 3, 3, 5)
    assert assert_matches_bruteforce(query, 2000, 1990) < 1.0


@pytest.mark.parametrize("n", [1, 3])
def test_box_beyond_a_million_sites_refuses_at_once(n):
    started = time.perf_counter()
    with pytest.raises(PrecisionLossError, match="1000000 sites"):
        meixner_cdf_gram(MeixnerEnsembleQuery(Fraction(1, 2), 3, n, 10**6))
    assert time.perf_counter() - started < 0.5


@pytest.fixture
def z_calls(monkeypatch):
    calls = []
    original = meixner.partition_function

    def spy(q, m, n):
        calls.append((q, m, n))
        return original(q, m, n)

    monkeypatch.setattr(meixner, "partition_function", spy)
    return calls


@pytest.mark.parametrize("q,m,n,eta", [
    (Fraction(1, 2), 2, 2, 3),
    (Fraction(1, 3), 4, 2, 2),
    (Fraction(99, 100), 3, 3, 5),
    (Fraction(9, 10), 8, 5, 30),
], ids=["1/2-2x2", "1/3-4x2", "99/100-3x3", "9/10-8x5"])
def test_partition_function_once_per_answer(z_calls, q, m, n, eta):
    meixner_cdf_gram(MeixnerEnsembleQuery(q, m, n, eta), precision=80)
    assert len(z_calls) == 1
    assert z_calls[0][1:] == (m, n)


@pytest.mark.parametrize("query,precision", [
    (MeixnerEnsembleQuery(Fraction(1, 2), 6, 6, 30), 10),
    (MeixnerEnsembleQuery(Fraction(1, 2), 25, 25, 100), 50),
    (MeixnerEnsembleQuery(Fraction(1, 2), 2, 2, 10**6), 50),
], ids=["ill-conditioned", "singular", "box-too-large"])
def test_refusals_never_compute_the_partition_function(z_calls, query, precision):
    with pytest.raises(PrecisionLossError):
        meixner_cdf_gram(query, precision=precision)
    assert z_calls == []


def test_empty_box_never_computes_the_partition_function(z_calls):
    assert meixner_cdf_gram(MeixnerEnsembleQuery(Fraction(1, 2), 2, 2, -1)) == 0
    assert z_calls == []


def test_cli_query_computes_the_partition_function_once(z_calls, capsys):
    code = cli.main(["cdf-meixner", "--q", "2/7", "--m", "4", "--n", "3", "--eta", "2",
                     "--route", "gram"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert len(z_calls) == 1
