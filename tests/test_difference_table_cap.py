"""A large eta is refused before a difference table is built.

`delta_neg_binomial_orders` holds the one integer table behind exact
`cdf_det` and, through `delta_neg_binomial`, behind `transition_det` and
`joint_cdf`.  For a negative order it holds about x^2 log2(b) / 2 bits of
integers at the point x, and it charges their 64-bit words to the
MEIXNER_MAX_STATES cap first, so a refusal allocates nothing that grows
with x, and a table that is built stays within about the words charged.
"""

import tracemalloc
from fractions import Fraction

import pytest

from lppdist import CdfQuery, StateSpaceError, TransitionQuery, cdf_det, transition_det
from lppdist.cli import main
from lppdist.weights import MAX_STATES_ENV, delta_neg_binomial, delta_neg_binomial_orders

HALF = Fraction(1, 2)

LARGE_ETA_CALLS = {
    "cdf_det": lambda: cdf_det(CdfQuery(HALF, 1, 1, 40000)),
    "orders": lambda: delta_neg_binomial_orders(HALF, 3, 10**6, -2, 1),
    "transition_det": lambda: transition_det(TransitionQuery(HALF, 1, (0, 0), (40000, 40000))),
    "delta_neg_binomial": lambda: delta_neg_binomial(HALF, 1, -1, 10**6),
}


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv(MAX_STATES_ENV, raising=False)


@pytest.mark.parametrize("name", LARGE_ETA_CALLS)
def test_large_eta_refusal_has_bounded_memory(name):
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceError, match="difference table words"):
            LARGE_ETA_CALLS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("order", [-1, -3])
def test_table_peak_stays_near_the_words_charged(order):
    # q = 1/2, m = 1: each of the x + 1 integers is below 2^x, so the table
    # is charged (x + 1) (x // 64 + 1) words.  It is built and summed in
    # place, so no second table of that size is ever alive.
    x = 17001
    charged = (x + 1) * (x // 64 + 1) * 8
    tracemalloc.start()
    try:
        delta_neg_binomial_orders(HALF, 1, x, order, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * charged


def test_moderate_eta_still_runs():
    # One geometric site: P[w <= eta] = 1 - q^(eta + 1).
    assert cdf_det(CdfQuery(HALF, 1, 1, 10000)) == 1 - HALF**10001


def test_nonnegative_orders_build_no_table():
    # Delta^1 w_1 at x = 10^6 sums two terms, so nothing is charged.
    assert delta_neg_binomial(HALF, 1, 1, 10**6) == -HALF ** (10**6 + 2)


@pytest.mark.parametrize("argv", [
    ["cdf-det", "--q", "1/2", "--m", "1", "--n", "1", "--eta", "1000000"],
    ["transition", "--q", "1/2", "--steps", "1", "--x", "0,0", "--y", "40000,40000"],
], ids=lambda argv: argv[0])
def test_cli_exits_one_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "difference table words" in lines[0]
