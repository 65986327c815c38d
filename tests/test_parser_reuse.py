"""`cli.main` builds its parser once per process and gives the same reports as a fresh one."""

import json

import pytest

import lppdist.cli as cli

SESSION = [
    ["crosscheck", "--q", "1/2", "--m", "2", "--n", "2", "--eta", "3", "--samples", "2000"],
    ["cdf-det", "--q", "0.5", "--m", "2", "--n", "2", "--eta", "1"],
    ["simulate", "--q", "1/3", "--m", "2", "--n", "3", "--eta", "1,4", "--samples", "5000",
     "--seed", "7"],
    ["transition", "--q", "1/2", "--steps", "2", "--x", "0,1", "--y", "2,3"],
    ["joint", "--q", "1/3", "--m", "1", "--n", "2", "--eta1", "2", "--eta2", "4"],
    ["crosscheck", "--q", "2/3", "--m", "3", "--n", "2", "--eta", "4", "--samples", "3000",
     "--seed", "11"],
]


def call(capsys, argv):
    """(exit status, stdout rows without wall_ms, stderr) of one `cli.main` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    for row in rows:
        for entry in row.get("methods", []):
            entry.pop("wall_ms", None)
    return code, rows, captured.err


def test_one_parser_serves_a_session_like_fresh_ones(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    reused = [call(capsys, argv) for argv in SESSION]
    assert len(builds) == 1

    fresh = []
    for argv in SESSION:
        cli._parser.cache_clear()
        fresh.append(call(capsys, argv))
    assert len(builds) == 1 + len(SESSION)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0, 0]
    assert "error" in reused[1][2] and not reused[1][1]


@pytest.fixture(autouse=True)
def _fresh_cache_afterwards():
    yield
    cli._parser.cache_clear()
