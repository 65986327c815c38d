"""Inputs at the edge of what a float or an integer state can carry.

An exact q that rounds to 0.0 or 1.0 as a float degenerates the geometric
law of every float route, so `float(GeometricParameter)` refuses it with
PrecisionLossError: the contour routes and Monte Carlo report a typed
failure, while the exact routes, which never take that float, still answer.
An ordered vector takes its entries through `operator.index`, so a float or
a string is refused instead of being truncated or parsed.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import lppdist.cli as cli
from lppdist import (CdfQuery, ContourConfig, GeometricParameter, KernelSpec, OrderedVector,
                     PrecisionLossError, TransitionQuery, cdf_det, mc_cdf, mc_cdfs, transition_det)

TINY = Fraction(1, 10**400)
NEAR_ONE = Fraction(99999999999999999, 10**17)
EDGES = pytest.mark.parametrize("q", [TINY, NEAR_ONE], ids=["tiny", "near-one"])


def cli_run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


@EDGES
def test_float_of_an_edge_q_is_refused(q):
    param = GeometricParameter(q)
    assert param.value == q
    with pytest.raises(PrecisionLossError, match="rounds to"):
        float(param)


@EDGES
def test_float_routes_refuse_an_edge_q(q):
    with pytest.raises(PrecisionLossError):
        ContourConfig.for_q(q)
    with pytest.raises(PrecisionLossError):
        KernelSpec(q, 2, 2)
    with pytest.raises(PrecisionLossError):
        ContourConfig(r2=1.5, r1=2.0).validate_for(q)
    with pytest.raises(PrecisionLossError):
        mc_cdf(q, 2, 2, 1, 1000, 0)
    with pytest.raises(PrecisionLossError):
        mc_cdfs(q, 2, 2, (1, 2), 1000, 0)


def test_simulate_at_near_one_q_is_a_typed_refusal(capsys):
    code, out, err = cli_run(capsys, ["simulate", "--q", str(NEAR_ONE), "--m", "2", "--n", "2",
                                      "--eta", "1", "--samples", "1000"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "rounds to 1.0" in err


@pytest.mark.parametrize("command", ["cdf-fredholm", "cdf-biorth"])
def test_contour_commands_at_tiny_q_are_typed_refusals(capsys, command):
    code, out, err = cli_run(capsys, [command, "--q", str(TINY), "--m", "2", "--n", "2",
                                      "--eta", "1"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "rounds to 0.0" in err


@EDGES
def test_crosscheck_at_an_edge_q_agrees_on_the_exact_routes(capsys, q):
    code, out, err = cli_run(capsys, ["crosscheck", "--q", str(q), "--m", "2", "--n", "2",
                                      "--eta", "1"])
    assert code == cli.EXIT_OK
    entries = {entry["method"]: entry for entry in json.loads(out)["methods"]}
    assert {name for name, entry in entries.items() if "failure" in entry} == {
        "biorth", "fredholm", "mc"}
    exact = cdf_det(CdfQuery(q, 2, 2, 1))
    for name in ("det", "dp", "meixner"):
        assert Fraction(entries[name]["exact"]) == exact
    assert err.count("rounds to") == 3


@pytest.mark.parametrize("entries", [(0.9, 1.5), (0, 2.0), ("3",), "3", (Fraction(1),)])
def test_ordered_vector_refuses_non_integer_entries(entries):
    with pytest.raises(TypeError):
        OrderedVector.coerce(entries)


def test_transition_query_does_not_truncate_its_endpoints():
    q = Fraction(1, 2)
    with pytest.raises(TypeError):
        TransitionQuery(q, 1, (0.9, 1.5), (2.2, 2.9))
    assert transition_det(TransitionQuery(q, 1, (0, 1), (2, 2))) == Fraction(1, 16)


def test_ordered_vector_takes_integer_likes():
    v = OrderedVector((np.int64(0), True, 3))
    assert v.entries == (0, 1, 3)
    assert all(type(e) is int for e in v)


def test_cli_refuses_a_fractional_endpoint(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["transition", "--q", "1/2", "--steps", "1", "--x", "0.9,1.5", "--y", "2,2"])
    assert info.value.code == cli.EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    code, out, _ = cli_run(capsys, ["transition", "--q", "1/2", "--steps", "1",
                                    "--x", "0,1", "--y", "2,2"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["value"]["rational"] == "1/16"


def test_a_string_q_shares_the_fraction_instance():
    assert GeometricParameter.coerce("1/2") is GeometricParameter.coerce(Fraction(2, 4))
