"""The modular Toeplitz determinant behind exact `cdf_det`, with Bareiss as the oracle.

`toeplitz_determinant` runs the Levinson recursion modulo primes and
rebuilds the integer by the Chinese remainder theorem.  Every check here
compares with `bareiss_determinant` on the Fraction matrix of
`delta_neg_binomial` entries, or with a value Bareiss produced, so the engine
never vouches for itself.
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lppdist import weights
from lppdist.detformulas import CdfQuery, bareiss_determinant, cdf_det
from lppdist.weights import (MAX_STATES_ENV, SingularMinorError, StateSpaceError,
                             delta_neg_binomial, delta_neg_binomial_orders, delta_pow,
                             neg_binomial, toeplitz_determinant)

POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "pools"


def pool_shapes() -> list[tuple[Fraction, int, int, int]]:
    """(q, m, n, eta) of every `det` query of the exact pool and every
    crosscheck-pool query, with m >= n as the det route transposes them."""
    shapes = set()
    for name in ("exact", "crosscheck"):
        for slot in json.loads((POOLS / f"{name}.json").read_text())["slots"]:
            for entry in slot["entries"]:
                for raw in entry:
                    if raw["route"] == "det":
                        shapes.add((Fraction(raw["q"]), raw["m"], raw["n"], raw["eta"]))
                    elif raw["route"] == "cli" and raw["argv"][0] == "crosscheck":
                        args = dict(zip(raw["argv"][1::2], raw["argv"][2::2]))
                        m, n = sorted((int(args["--m"]), int(args["--n"])), reverse=True)
                        shapes.add((Fraction(args["--q"]), m, n, int(args["--eta"])))
    return sorted(shapes)


SHAPES = pool_shapes()


def bareiss_oracle(q, m: int, n: int, eta: int) -> Fraction:
    """P[G(m, n) <= eta] by Bareiss on the Fraction entries, one entry at a time."""
    matrix = [[delta_neg_binomial(q, m, j - i - 1, eta + 1) for j in range(n)] for i in range(n)]
    return bareiss_determinant(matrix)


def toeplitz(symbol: list[int]) -> list[list[int]]:
    n = (len(symbol) + 1) // 2
    return [[symbol[j - i + n - 1] for j in range(n)] for i in range(n)]


def test_pools_hold_more_than_the_exact_det_queries():
    assert len(SHAPES) > 112


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "q={}-m={}-n={}-eta={}".format(*s))
def test_pool_shapes_equal_bareiss(shape):
    q, m, n, eta = shape
    oracle = bareiss_oracle(q, m, n, eta)
    assert cdf_det(CdfQuery(q, m, n, eta)) == oracle
    symbol, scale = delta_neg_binomial_orders(q, m, eta + 1, -n, n - 2)
    assert scale**n * toeplitz_determinant(symbol) == oracle


@given(
    q=st.integers(2, 50).flatmap(lambda b: st.builds(Fraction, st.integers(1, b - 1), st.just(b))),
    n=st.integers(1, 8),
    extra=st.integers(0, 4),
    eta=st.integers(0, 8),
)
def test_small_shapes_equal_bareiss(q, n, extra, eta):
    # n = 1 and eta = 0 run on the modular engine too.
    assert cdf_det(CdfQuery(q, n + extra, n, eta)) == bareiss_oracle(q, n + extra, n, eta)


def test_forty_by_forty_equals_bareiss():
    q, m, n, eta = Fraction(1, 2), 40, 40, 185
    assert cdf_det(CdfQuery(q, m, n, eta)) == bareiss_oracle(q, m, n, eta)


def test_sixty_by_sixty_matches_the_bareiss_digest_within_budget():
    # SHA-256 of the hex numerator/denominator of Bareiss's Fraction, which
    # took 15.8 s; the engine takes about 0.15 s.
    start = time.perf_counter()
    value = cdf_det(CdfQuery(Fraction(1, 2), 60, 60, 289))
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(f"{value.numerator:x}/{value.denominator:x}".encode()).hexdigest()
    assert digest == "290f05f2f5242d894ca3f5d76aa77adcd6d63626a9701d49182bf1585500af2e"
    assert elapsed < 10.0


def test_leading_minors_are_the_narrower_grids():
    # The leading k x k block of the (m, n, eta) matrix is the (m, k, eta)
    # matrix, both over the scale of the n x n symbol.
    q, m, n, eta = Fraction(7, 10), 20, 16, 60
    symbol, scale = delta_neg_binomial_orders(q, m, eta + 1, -n, n - 2)
    for k in range(1, n + 1):
        block = symbol[n - k:n + k - 1]
        assert scale**k * toeplitz_determinant(block) == cdf_det(CdfQuery(q, m, k, eta))


def test_random_symbols_equal_bareiss(rng):
    for _ in range(200):
        n = int(rng.integers(1, 10))
        digits = rng.integers(0, 60, size=2 * n - 1)
        symbol = [int(rng.integers(-9, 10)) * 10 ** int(d) + int(rng.integers(-99, 100))
                  for d in digits]
        try:
            value = toeplitz_determinant(symbol)
        except SingularMinorError:
            continue
        assert value == bareiss_determinant(toeplitz(symbol))


@pytest.mark.parametrize("symbol", [[0, 0, 0], [1, 0, 1], [1, 1, 1, 1, 1, 2, 3]])
def test_minor_zero_over_q_is_refused(symbol):
    with pytest.raises(SingularMinorError):
        toeplitz_determinant(symbol)


@pytest.mark.parametrize("symbol", [[0], [-7], [1, 1, 1], [1, 2, 3, 4, 5], [0, -3, 0]])
def test_full_determinant_may_vanish_or_be_negative(symbol):
    assert toeplitz_determinant(symbol) == bareiss_determinant(toeplitz(symbol))


def test_prime_dividing_a_leading_minor_is_dropped(monkeypatch):
    first = int(weights._primes(0, 1)[0])
    symbol = [5, 3, 2, first, 7, 1, 11]  # the leading 1 x 1 minor t_0 is that prime
    misses = []
    levinson = weights._levinson_residues

    def spy(t, primes):
        num, den, first_zero = levinson(t, primes)
        misses.extend(primes[first_zero < (t.shape[1] + 1) // 2].tolist())
        return num, den, first_zero

    monkeypatch.setattr(weights, "_levinson_residues", spy)
    assert toeplitz_determinant(symbol) == bareiss_determinant(toeplitz(symbol))
    assert misses == [first]


def test_corrupted_residue_fails_the_spare_prime_check(monkeypatch):
    residues = weights._residues

    def corrupt(values, primes):
        out = residues(values, primes)
        out[0, len(values) // 2] = (out[0, len(values) // 2] + 1) % primes[0]
        return out

    symbol, _ = delta_neg_binomial_orders(Fraction(1, 2), 20, 61, -20, 18)
    monkeypatch.setattr(weights, "_residues", corrupt)
    with pytest.raises(ArithmeticError, match="spare prime"):
        toeplitz_determinant(symbol)


def test_residues_equal_python_remainders(rng):
    primes = weights._primes(100, 40)
    values = [int(rng.integers(-10**6, 10**6)) * 7**int(rng.integers(0, 4000)) for _ in range(9)]
    values.append(-(7**50000))  # more bytes than one float block holds
    expected = np.array([[v % p for v in values] for p in primes.tolist()])
    assert (weights._residues(values, primes) == expected).all()


def test_primes_are_distinct_primes_below_two_to_thirty():
    first = weights._prime_segment(0).size
    primes = weights._primes(first - 50, 100).tolist()  # straddles two segments
    assert len(set(primes)) == 100 and primes == sorted(primes, reverse=True)
    assert all(2**29 < p < 2**30 for p in primes)
    assert all(p % d for p in primes for d in range(2, 32768) if d * d <= p)


def test_state_cap_refuses_before_allocating(monkeypatch):
    monkeypatch.setenv(MAX_STATES_ENV, "1000")
    with pytest.raises(StateSpaceError, match="Toeplitz residues for n=20"):
        cdf_det(CdfQuery(Fraction(1, 2), 20, 20, 60))


def test_orders_equal_delta_neg_binomial():
    # The oracle is the difference calculus on the Fraction values of w_m,
    # which shares no code with the integer table.  Below the support every
    # order <= 0 is 0, and positive orders read the zeros below t = 0.
    for q in (Fraction(1, 2), Fraction(7, 10), Fraction(2, 7)):
        for m in (1, 2, 5):
            for x in (*range(-6, 0), 0, 1, 4, 9):
                for low in range(-5, 3):
                    for high in range(low, 5):
                        values, scale = delta_neg_binomial_orders(q, m, x, low, high)
                        expected = [delta_pow(lambda t: neg_binomial(q, m, t), k, x, support_min=0)
                                    for k in range(low, high + 1)]
                        assert [scale * v for v in values] == expected


def test_import_builds_no_prime_table():
    code = ("import lppdist, lppdist.weights as w; "
            "print(w._prime_segment.cache_info().currsize, w._sieving_primes.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]
