"""The chain determinants on integer matrices.

`transition_det` and `joint_cdf` take the powers of b (q = a/b) out of the
rows and columns of their matrices and eliminate the integers that remain.
They are checked against the Fraction-matrix elimination of one entry at a
time and against stepwise chain propagation; the integer Bareiss core is
checked against permutation expansion where it must pivot or stop.  The Gram
route alone loads mpmath, so importing the package and its CLI does not.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lppdist
from lppdist import (StateSpaceError, TransitionQuery, bareiss_determinant, joint_cdf,
                     transition_det)
from lppdist.detformulas import _bareiss
from lppdist.weights import MAX_STATES_ENV, delta_neg_binomial
from test_detformulas import det_permutation, joint_chain_oracle

Q_RATIONAL = (Fraction(1, 3), Fraction(1, 2), Fraction(7, 11), Fraction(83, 112))


def entrywise_transition(q, steps, x, y):
    """The transition determinant over Fraction entries, one entry per call."""
    if steps == 0:
        return Fraction(int(tuple(x) == tuple(y)))
    n = len(x)
    return bareiss_determinant([
        [delta_neg_binomial(q, steps, j - i, y[j] - x[i]) for j in range(n)]
        for i in range(n)
    ])


@pytest.mark.parametrize("q", Q_RATIONAL, ids=str)
@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_joint_matches_chain_propagation(q, m, n):
    for eta1, eta2 in [(0, 0), (1, 2), (2, 1), (2, 2)]:
        trunc = max(eta1, eta2)
        value, increment = joint_cdf(q, m, n, eta1, eta2, trunc)
        assert value == joint_chain_oracle(q, m, n, eta1, eta2, trunc), (eta1, eta2)
        assert increment == 0


def test_transition_matches_entrywise_elimination():
    rng = random.Random(20261019)
    seen = {"steps 0": 0, "off cone": 0, "d + n - 1 < 0": 0}
    for _ in range(400):
        q = rng.choice(Q_RATIONAL)
        steps, n = rng.randint(0, 4), rng.randint(1, 4)
        x = sorted(rng.randint(0, 9) for _ in range(n))
        y = sorted(rng.randint(0, 9) for _ in range(n))
        value = transition_det(TransitionQuery(q, steps, x, y))
        assert value == entrywise_transition(q, steps, x, y), (q, steps, x, y)
        seen["steps 0"] += steps == 0
        seen["off cone"] += any(a > b for a, b in zip(x, y)) and value == 0
        seen["d + n - 1 < 0"] += any(y[j] - x[i] + n - 1 < 0 for i in range(n) for j in range(n))
    assert min(seen.values()) > 0, seen


def test_transition_with_a_far_endpoint_read_at_nonnegative_orders_only():
    # y_2 - x_i = 40000 is read only at orders 0 and 1, which build no table,
    # so nothing is charged; the difference is still exact.
    q, x, y = Fraction(1, 2), (0, 0), (0, 40000)
    value = transition_det(TransitionQuery(q, 1, x, y))
    assert value == entrywise_transition(q, 1, x, y)


@pytest.mark.parametrize("cap", ["50", "439"])
def test_transition_refusal_names_the_first_charged_entry(cap, monkeypatch):
    # Row by row, the first negative order is read at 149, by entry (2, 1).
    # 150 is read earlier, at order 0 by entry (1, 1), and at order -1 only
    # later, by entry (3, 2); an entry-by-entry fill names 149.
    monkeypatch.setenv(MAX_STATES_ENV, cap)
    with pytest.raises(StateSpaceError, match=r"m=1, x=149\b"):
        transition_det(TransitionQuery(Fraction(1, 2), 1, (0, 1, 1), (150, 151, 151)))


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[0, 2, 3], [0, 4, 5], [1, 1, 1]],
    [[2, 1, 3], [4, 2, 1], [1, 5, 2]],  # second pivot is zero after one step
    [[1, 2], [2, 4]],
    [[1, 2, 3], [2, 4, 7], [1, 2, 5]],  # singular: the second column eliminates to 0
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[7]],
    [],
], ids=lambda rows: str(rows))
def test_integer_core_pivots_and_singular(rows):
    assert _bareiss([row[:] for row in rows]) == det_permutation(rows)
    assert bareiss_determinant(rows) == det_permutation(rows)


def test_package_and_cli_import_without_mpmath(tmp_path):
    script = "\n".join([
        "import sys",
        "import lppdist, lppdist.cli",
        "print('mpmath' in sys.modules, file=sys.stderr)",
        "sys.exit(lppdist.cli.main(['cdf-meixner', '--q', '1/3', '--m', '3', '--n', '2',",
        "                           '--eta', '3', '--route', 'gram', '--precision', '30']))",
    ])
    package_root = str(Path(lppdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False"]
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    expect = float(lppdist.cdf_det(lppdist.CdfQuery(Fraction(1, 3), 3, 2, 3)))
    assert abs(float(row["methods"][0]["value"]) - expect) < 1e-13
