"""Command-line interface: schema conformance, exit codes, and value fidelity.

Every JSON line the CLI prints must validate against the published report
schema, every decimal string must round-trip through .17g, and the numbers
must equal what the library functions return for the same arguments.
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import lppdist
import lppdist.cli as cli
from lppdist import (
    CdfQuery,
    MeixnerEnsembleQuery,
    OrderedVector,
    cdf_det,
    exact_cdf_dp,
    joint_cdf,
    meixner_cdf_bruteforce,
    one_step_transition,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validated_rows(out: str) -> list[dict]:
    rows = [json.loads(line) for line in out.strip().splitlines()]
    for row in rows:
        jsonschema.validate(row, cli.REPORT_SCHEMA)
    return rows


def assert_g17(text: str) -> float:
    value = float(text)
    assert format(value, ".17g") == text
    return value


class TestArgumentValidation:
    def test_decimal_q_is_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["cdf-det", "--q", "0.5", "--m", "2", "--n", "2", "--eta", "1"])
        assert info.value.code == cli.EXIT_USAGE

    def test_q_outside_unit_interval_is_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["cdf-det", "--q", "3/2", "--m", "2", "--n", "2", "--eta", "1"])
        assert info.value.code == cli.EXIT_USAGE

    def test_zero_samples_is_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", "--q", "1/2", "--m", "2", "--n", "2",
                      "--eta", "1", "--samples", "0"])
        assert info.value.code == cli.EXIT_USAGE

    def test_unordered_state_vector_is_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["transition", "--q", "1/2", "--steps", "1",
                      "--x", "2,1", "--y", "2,2"])
        assert info.value.code == cli.EXIT_USAGE

    def test_unknown_crosscheck_method_is_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["crosscheck", "--q", "1/2", "--m", "2", "--n", "2",
                      "--eta", "1", "--methods", "dp,oracle"])
        assert info.value.code == cli.EXIT_USAGE

    def test_mismatched_endpoint_lengths(self, capsys):
        code, out, err = run(capsys, ["transition", "--q", "1/2", "--steps", "1",
                                      "--x", "0", "--y", "1,1"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "equal length" in err

    def test_runtime_failure_maps_to_usage_exit(self, capsys):
        code, out, err = run(capsys, ["cdf-biorth", "--q", "1/2", "--m", "2",
                                      "--n", "2", "--eta", "1",
                                      "--r2", "1.9", "--r1", "1.1"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "failed" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    @pytest.mark.parametrize("command", [["simulate", "--samples", "10"],
                                         ["crosscheck", "--methods", "mc"]])
    def test_seed_outside_philox_key_range_is_rejected(self, capsys, command, seed):
        with pytest.raises(SystemExit) as info:
            cli.main(command + ["--q", "1/2", "--m", "2", "--n", "2", "--eta", "1",
                                "--seed", seed])
        assert info.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("command", ["cdf-fredholm", "crosscheck"])
    def test_trunc_at_section_cap_is_rejected(self, capsys, command):
        cap = lppdist.fredholm._SECTION_CAP
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--q", "1/2", "--m", "3", "--n", "2", "--eta", "2",
                      "--trunc", str(cap)])
        assert info.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "--trunc" in err and str(cap) in err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--q", "1/2", "--m", "2", "--n", "2",
                                    "--eta", "1", "--samples", "10", "--seed", str(2**128 - 1)])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        assert row["params"]["seed"] == 2**128 - 1

    def test_gram_route_precision_floor(self, capsys):
        code, out, err = run(capsys, ["cdf-meixner", "--q", "1/2", "--m", "2",
                                      "--n", "2", "--eta", "1",
                                      "--route", "gram", "--precision", "5"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "error" in err

    def test_singular_gram_route_is_a_typed_failure(self, capsys):
        code, out, err = run(capsys, ["cdf-meixner", "--q", "1/2", "--m", "25",
                                      "--n", "25", "--eta", "100", "--route", "gram"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: method meixner failed: ")
        assert "raise precision" in err
        assert "Traceback" not in err


class TestSimulate:
    ARGS = ["simulate", "--q", "1/2", "--m", "3", "--n", "2", "--eta", "0,1,2",
            "--samples", "20000", "--seed", "7"]

    def test_one_row_per_threshold_and_schema(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == cli.EXIT_OK
        rows = validated_rows(out)
        assert [row["params"]["eta"] for row in rows] == [0, 1, 2]
        values = [assert_g17(row["methods"][0]["value"]) for row in rows]
        assert values == sorted(values)
        for row in rows:
            assert_g17(row["methods"][0]["error_estimate"])

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, self.ARGS)
        _, second, _ = run(capsys, self.ARGS)
        assert first == second

    def test_estimates_near_exact_law(self, capsys):
        _, out, _ = run(capsys, self.ARGS)
        for row in validated_rows(out):
            entry = row["methods"][0]
            p, se = float(entry["value"]), float(entry["error_estimate"])
            exact = float(exact_cdf_dp(Fraction(1, 2), 3, 2, row["params"]["eta"]))
            assert abs(p - exact) <= 5.0 * max(se, 1e-12)

    def test_csv_output_parses(self, capsys):
        code, out, _ = run(capsys, ["--csv"] + self.ARGS)
        assert code == cli.EXIT_OK
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert len(rows) == 3
        assert reader.fieldnames == ["q", "m", "n", "samples", "seed", "eta",
                                     "method", "value", "error_estimate"]
        for row in rows:
            assert row["method"] == "mc"
            assert_g17(row["value"])


class TestSingleMethodCommands:
    def test_det_reports_exact_rational(self, capsys):
        code, out, _ = run(capsys, ["cdf-det", "--q", "2/3", "--m", "3",
                                    "--n", "2", "--eta", "3"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        entry = row["methods"][0]
        expect = cdf_det(CdfQuery(Fraction(2, 3), 3, 2, 3))
        assert Fraction(entry["exact"]) == expect
        assert assert_g17(entry["value"]) == float(expect)

    def test_tall_grid_is_transposed(self, capsys):
        code, out, _ = run(capsys, ["cdf-det", "--q", "1/2", "--m", "2",
                                    "--n", "4", "--eta", "2"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        assert Fraction(row["methods"][0]["exact"]) == exact_cdf_dp(Fraction(1, 2), 2, 4, 2)

    def test_fredholm_reports_increment_and_params(self, capsys):
        code, out, _ = run(capsys, ["cdf-fredholm", "--q", "1/2", "--m", "3",
                                    "--n", "2", "--eta", "3"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        assert row["params"]["variant"] == "derivation"
        assert row["params"]["trunc"] == 16
        entry = row["methods"][0]
        exact = float(exact_cdf_dp(Fraction(1, 2), 3, 2, 3))
        assert abs(assert_g17(entry["value"]) - exact) < cli.NUMERIC_TOL
        assert abs(float(entry["increment"])) < 1e-10

    def test_gram_route_matches_determinant(self, capsys):
        code, out, _ = run(capsys, ["cdf-meixner", "--q", "1/3", "--m", "3",
                                    "--n", "2", "--eta", "3",
                                    "--route", "gram", "--precision", "30"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        assert row["params"]["route"] == "gram"
        value = float(row["methods"][0]["value"])
        expect = float(cdf_det(CdfQuery(Fraction(1, 3), 3, 2, 3)))
        assert abs(value - expect) < 1e-13


class TestCrosscheck:
    def test_agreeing_methods_exit_zero(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--q", "1/2", "--m", "3",
                                    "--n", "2", "--eta", "2",
                                    "--methods", "det,mc", "--samples", "20000"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        assert row["agreement"] is True
        names = [entry["method"] for entry in row["methods"]]
        assert names == ["det", "dp", "mc"]
        assert all(comp["ok"] for comp in row["comparisons"])
        assert len(row["comparisons"]) == 3

    def test_exact_methods_compare_as_rationals(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--q", "2/3", "--m", "2",
                                    "--n", "2", "--eta", "4",
                                    "--methods", "det,dp,meixner"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        for comp in row["comparisons"]:
            assert comp["delta"] == "0"
            assert comp["tolerance"] == "0"

    def test_printed_kernel_variant_disagrees_off_diagonal(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--q", "1/2", "--m", "3",
                                    "--n", "1", "--eta", "2",
                                    "--methods", "dp,fredholm",
                                    "--kernel-variant", "printed"])
        assert code == cli.EXIT_DISAGREE
        (row,) = validated_rows(out)
        assert row["agreement"] is False
        assert row["params"]["variant"] == "printed"
        (comp,) = row["comparisons"]
        assert not comp["ok"]
        assert float(comp["delta"]) > 1e-4

    def test_failed_method_is_recorded_not_fatal(self, capsys):
        code, out, err = run(capsys, ["crosscheck", "--q", "1/2", "--m", "3",
                                      "--n", "2", "--eta", "2",
                                      "--methods", "dp,biorth",
                                      "--r2", "1.9", "--r1", "1.1"])
        assert code == cli.EXIT_DISAGREE
        (row,) = validated_rows(out)
        by_name = {entry["method"]: entry for entry in row["methods"]}
        assert "failure" in by_name["biorth"]
        assert "value" in by_name["dp"]
        assert row["agreement"] is False
        assert "failed" in err


    def test_zero_variance_monte_carlo_is_not_a_disagreement(self, capsys):
        # P[G(1, 1) > 20] = 2**-21, so every one of the 100000 samples hits:
        # the estimate is 1 with standard error 0, yet its band stays open.
        code, out, _ = run(capsys, ["crosscheck", "--q", "1/2", "--m", "1", "--n", "1",
                                    "--eta", "20", "--methods", "det,mc"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        mc = {entry["method"]: entry for entry in row["methods"]}["mc"]
        assert (mc["value"], mc["error_estimate"]) == ("1", "0")
        z2, samples = cli.MC_SIGMA**2, row["params"]["samples"]
        band = z2 / (samples + z2)
        mc_pairs = [comp for comp in row["comparisons"] if comp["pair"].endswith("/mc")]
        assert len(mc_pairs) == 2
        for comp in mc_pairs:
            assert comp["ok"]
            assert float(comp["tolerance"]) == pytest.approx(band, rel=1e-12)
        assert cli._wilson_reach(0.0, samples) == pytest.approx(band, rel=1e-12)


class TestCsvHeaders:
    METHOD = "method,value,exact,error_estimate,wall_ms,failure"
    MODEL = ["--q", "1/2", "--m", "3", "--n", "2", "--eta", "2"]

    @pytest.mark.parametrize("argv, header, records", [
        (["cdf-det"] + MODEL, "q,m,n,eta," + METHOD, 1),
        (["cdf-meixner"] + MODEL, "q,m,n,eta," + METHOD, 1),
        (["cdf-meixner"] + MODEL + ["--route", "gram"],
         "q,m,n,eta,route,precision,method,value,wall_ms", 1),
        (["cdf-biorth"] + MODEL, "q,m,n,eta," + METHOD, 1),
        (["cdf-fredholm"] + MODEL, "q,m,n,eta,variant,trunc," + METHOD, 1),
        (["crosscheck"] + MODEL + ["--methods", "det"],
         "q,m,n,eta,samples,seed,variant," + METHOD + ",agreement", 2),
        (["joint", "--q", "1/2", "--m", "1", "--n", "2", "--eta1", "2", "--eta2", "3"],
         "q,m,n,eta1,eta2,trunc,value_rational,value_decimal,increment_rational,"
         "increment_decimal", 1),
    ])
    def test_header_and_record_count(self, capsys, argv, header, records):
        code, out, _ = run(capsys, ["--csv"] + argv)
        assert code == cli.EXIT_OK
        lines = out.split("\r\n")
        assert lines[0] == header
        assert lines[-1] == ""
        assert len(lines) == records + 2
        width = len(header.split(","))
        assert all(len(row) == width for row in csv.reader(io.StringIO(out)))


class TestMarkovCommands:
    def test_transition_matches_library(self, capsys):
        code, out, _ = run(capsys, ["transition", "--q", "1/2", "--steps", "1",
                                    "--x", "0,1", "--y", "2,2"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        expect = one_step_transition(Fraction(1, 2), OrderedVector((0, 1)),
                                     OrderedVector((2, 2)))
        assert Fraction(row["value"]["rational"]) == expect
        assert assert_g17(row["value"]["decimal"]) == float(expect)

    def test_zero_steps_is_identity_indicator(self, capsys):
        _, out, _ = run(capsys, ["transition", "--q", "1/2", "--steps", "0",
                                 "--x", "1,3", "--y", "1,3"])
        (row,) = validated_rows(out)
        assert row["value"]["rational"] == "1"

    def test_joint_matches_library(self, capsys):
        code, out, _ = run(capsys, ["joint", "--q", "1/2", "--m", "1", "--n", "2",
                                    "--eta1", "2", "--eta2", "3"])
        assert code == cli.EXIT_OK
        (row,) = validated_rows(out)
        assert row["params"]["trunc"] == 11
        value, increment = joint_cdf(Fraction(1, 2), 1, 2, 2, 3, 11)
        assert Fraction(row["value"]["rational"]) == value
        assert Fraction(row["increment"]["rational"]) == increment

    def test_transition_csv(self, capsys):
        code, out, _ = run(capsys, ["--csv", "transition", "--q", "1/2",
                                    "--steps", "1", "--x", "0,1", "--y", "2,2"])
        assert code == cli.EXIT_OK
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert row["value_rational"] == "1/16"
        assert_g17(row["value_decimal"])


class TestRationalsPastTheDigitLimit:
    """Exact values whose terms have more digits than int-to-str converts by default."""

    @staticmethod
    def parse(text: str) -> Fraction:
        numerator, _, denominator = text.partition("/")
        return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))

    def test_meixner_reports_its_fraction(self, capsys):
        code, out, err = run(capsys, ["cdf-meixner", "--q", "1/2", "--m", "1", "--n", "1",
                                      "--eta", "20000"])
        assert code == cli.EXIT_OK, err
        (row,) = validated_rows(out)
        expect = meixner_cdf_bruteforce(MeixnerEnsembleQuery(Fraction(1, 2), 1, 1, 20000))
        assert self.parse(row["methods"][0]["exact"]) == expect

    def test_transition_reports_its_fraction(self, capsys):
        code, out, err = run(capsys, ["transition", "--q", "1/2", "--steps", "1",
                                      "--x", "0", "--y", "20000"])
        assert code == cli.EXIT_OK, err
        (row,) = validated_rows(out)
        assert self.parse(row["value"]["rational"]) == Fraction(1, 2**20001)


def test_installed_script_runs(tmp_path):
    """The ``[project.scripts]`` entry runs as its own process.

    It must parse its arguments from ``sys.argv``, hand ``main``'s return value
    to ``sys.exit`` as the exit status, and print a valid report. The in-process
    ``cli.main([...])`` tests above pass ``argv`` and read the return value
    directly, so none of them covers that path. The declared target is run the
    way the wrapper that pip generates runs it, in a fresh interpreter that
    finds the package through ``PYTHONPATH`` alone; an installed ``lppdist`` on
    ``PATH`` is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lppdist"]
    module, func = target.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'lppdist'; sys.exit({func}())")
    package_root = str(Path(lppdist.__file__).resolve().parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    commands = [([sys.executable, "-c", wrapper], dict(os.environ, PYTHONPATH=search_path))]
    exe = shutil.which("lppdist")
    if exe is not None:
        commands.append(([exe], None))

    for command, env in commands:
        proc = subprocess.run(command + ["cdf-det", "--q", "1/2", "--m", "2", "--n", "2",
                                         "--eta", "1"], capture_output=True, text=True,
                              timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == 0
        (row,) = validated_rows(proc.stdout)
        assert row["methods"][0]["exact"] == "13/64"

        # A status that main returns, not raises, must also reach the shell.
        proc = subprocess.run(command + ["transition", "--q", "1/2", "--steps", "1",
                                         "--x", "0", "--y", "1,1"], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env=env)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stdout == ""
        assert "equal length" in proc.stderr


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
def test_closed_stdout_is_a_quiet_exit(fmt):
    # The read end is closed before the report is written, as `| head -c 10`
    # does once it has its bytes, so the child's first write meets EPIPE.
    package_root = str(Path(lppdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    argv = [*fmt, "crosscheck", "--q", "1/2", "--m", "3", "--n", "2", "--eta", "5"]
    proc = subprocess.Popen([sys.executable, "-m", "lppdist.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err == ""
    assert proc.returncode == cli.EXIT_USAGE
