"""A starting node count must leave the doubling loop room for one refinement.

`adaptive_batch` compares two refinements and stops at MAX_NODES, so a start
above MAX_NODES / 2 can never converge; the configuration refuses it before
any node array is built.
"""

from fractions import Fraction

import pytest

import lppdist.cli as cli
from lppdist import ContourConfig
from lppdist.weights import MAX_NODES


def test_largest_start_leaves_one_doubling():
    assert MAX_NODES // 2 == 4096
    assert ContourConfig(r2=1.1, r1=1.2, nodes=4096).nodes == 4096


@pytest.mark.parametrize("nodes", [4098, 8192, 2**40])
def test_start_above_half_the_cap_is_rejected(nodes):
    with pytest.raises(ValueError, match="4096"):
        ContourConfig(r2=1.1, r1=1.2, nodes=nodes)
    with pytest.raises(ValueError, match="4096"):
        ContourConfig.for_q(Fraction(1, 2), nodes=nodes)


MODEL = ["--q", "1/2", "--m", "2", "--n", "2", "--eta", "3"]


def test_cli_accepts_half_the_cap(capsys):
    code = cli.main(["cdf-fredholm", *MODEL, "--nodes", "4096"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert '"method":"fredholm"' in out


@pytest.mark.parametrize("nodes", ["4098", "8192"])
@pytest.mark.parametrize("command", ["cdf-fredholm", "cdf-biorth"])
def test_cli_rejects_a_start_above_half_the_cap(capsys, command, nodes):
    code = cli.main([command, *MODEL, "--nodes", nodes])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "node count" in captured.err and "4096" in captured.err
    assert "Traceback" not in captured.err
