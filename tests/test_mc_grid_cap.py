"""Monte Carlo charges the cells of one grid to the state cap before allocating.

A grid beyond MEIXNER_MAX_STATES cells refuses with StateSpaceError while
almost nothing is allocated, instead of asking for buffers of m n doubles.
"""

import tracemalloc
from fractions import Fraction

import pytest

import lppdist.cli as cli
from lppdist import StateSpaceError, mc_cdfs, sample_grid
from lppdist.weights import MAX_STATES_ENV

Q = Fraction(1, 2)


@pytest.fixture
def cap_100(monkeypatch):
    monkeypatch.setenv(MAX_STATES_ENV, "100")


@pytest.mark.parametrize("side", [20, 200])
@pytest.mark.parametrize("draw", [
    lambda side: mc_cdfs(Q, side, side, (5, 30), 1000, 3),
    lambda side: sample_grid(Q, side, side, 3),
], ids=["mc_cdfs", "sample_grid"])
def test_grid_above_the_cap_refuses_before_allocating(cap_100, draw, side):
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceError) as info:
            draw(side)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"number at least {side * side}," in str(info.value)
    # One 200x200 grid of doubles is 320 kB; 1000 20x20 grids of a chunk, 3.2 MB.
    assert peak < 32 * 1024


def test_grid_within_the_cap_runs(cap_100):
    (p, stderr), = mc_cdfs(Q, 10, 10, (200,), 50, 3)
    assert p == 1.0 and stderr == 0.0
    assert sample_grid(Q, 10, 10, 3).w.shape == (10, 10)


def test_cli_simulate_refuses_a_huge_grid(capsys, monkeypatch):
    monkeypatch.delenv(MAX_STATES_ENV, raising=False)
    code = cli.main(["simulate", "--q", "1/2", "--m", "30000", "--n", "30000",
                     "--eta", "5", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "Monte Carlo grid cells" in captured.err
    assert "Traceback" not in captured.err
