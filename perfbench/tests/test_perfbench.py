"""Self-tests of the benchmark: seeded inputs, the answer checker, the report
schema, the pools' confirmations, and the tracer's installation.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import jsonschema
import pytest

import common
import run
import spans
import workloads

lppdist = common.import_lppdist()


def _labels(workload, passes=3):
    return [[q.label() for q in workload.pass_queries(i)] for i in range(passes)]


@pytest.mark.parametrize("name", common.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _labels(workloads.generate(name, 11))
    assert first == _labels(workloads.generate(name, 11))
    assert first != _labels(workloads.generate(name, 12))


@pytest.mark.parametrize("name", common.WORKLOADS)
def test_every_pass_has_the_same_entries_per_slot(name):
    workload = workloads.generate(name, 3)
    expected = sum(len(slot[0]) * (len(slot) if workloads.takes_whole(name, slot) else 1)
                   for slot in workload.slots)
    assert all(len(workload.pass_queries(i)) == expected for i in range(4))


@pytest.mark.parametrize("name", common.WORKLOADS)
def test_every_reference_has_two_distinct_confirming_routes(name):
    path = os.path.join(common.POOL_DIR, f"{name}.json")
    with open(path) as fh:
        slots = json.load(fh)["slots"]
    for slot in slots:
        for entry in slot["entries"]:
            for raw in entry:
                assert len(set(raw["by"])) == 2, raw
                # a route never confirms its own reference alone
                assert set(raw["by"]) - {raw["route"]}, raw


def test_dp_keys_do_not_repeat_across_passes_of_the_exact_workload():
    workload = workloads.generate("exact", 5)
    keys = [(str(q.params["q"]), q.params["n"], q.params["eta"])
            for i in range(16) for q in workload.pass_queries(i) if q.route == "dp"]
    assert len(keys) == len(set(keys))


def _first(name, route, argv0=None):
    for slot in workloads.load_pool(name):
        for entry in slot:
            for query in entry:
                if query.route == route and (argv0 is None or query.params["argv"][0] == argv0):
                    return query
    raise LookupError(route)


def _with_refs(query, refs):
    return workloads.Query(query.route, query.params, refs, query.by, query.key)


def _outcome(query):
    runner = run.Runner(lppdist)
    runner.run_pass([query], record_latency=False)
    return runner.failed, runner.wrong


@pytest.mark.parametrize("route", ["transition", "det", "joint"])
def test_checker_rejects_exact_reference_off_by_one_ulp_or_one_numerator_unit(route):
    query = _first("exact", route)
    ref = query.refs[0]
    assert _outcome(query) == (0, 0)
    bumped = Fraction(ref.numerator + 1, ref.denominator)
    ulp = Fraction(math.nextafter(float(ref), 2.0))
    assert ulp != ref
    for perturbed in (bumped, ulp):
        assert _outcome(_with_refs(query, [perturbed])) == (1, 1)


def test_checker_rejects_perturbed_cli_references():
    query = _first("crosscheck", "cli", "transition")
    ref = query.refs[0]
    assert _outcome(query) == (0, 0)
    assert _outcome(_with_refs(query, [Fraction(ref.numerator + 1, ref.denominator)])) == (1, 1)
    assert _outcome(_with_refs(query, [Fraction(math.nextafter(float(ref), 2.0))])) == (1, 1)


def test_float_and_mc_checks_use_their_bands():
    ref = Fraction(1, 3)
    assert workloads.check_float(float(ref) + 0.5e-8, ref) is None
    assert workloads.check_float(float(ref) + 2e-8, ref) is not None
    samples = 100_000
    band = 4 * math.sqrt(ref * (1 - ref) / samples)
    assert workloads.check_mc(float(ref) + 0.9 * band, ref, samples) is None
    assert workloads.check_mc(float(ref) + 1.1 * band + 1 / samples, ref, samples) is not None
    # an estimate of exactly 1 is judged against the exact p, not a zero stderr
    near_one = 1 - Fraction(1, 10**9)
    assert workloads.check_mc(1.0, near_one, samples) is None


def _cheap_cli_queries():
    wanted = {"crosscheck-1x1", "crosscheck-pair-n1-m1-m3", "transition-s2-n2",
              "joint-1x2", "gram-3x2", "simulate-4x2"}
    with open(os.path.join(common.POOL_DIR, "crosscheck.json")) as fh:
        names = [slot["name"] for slot in json.load(fh)["slots"]]
    pool = workloads.load_pool("crosscheck")
    return [query for name, slot in zip(names, pool) if name in wanted
            for query in slot[0]]


def test_captured_reports_validate_against_the_report_schema():
    runner = run.Runner(lppdist)
    queries = _cheap_cli_queries()
    assert {q.params["argv"][0] for q in queries} == {
        "crosscheck", "transition", "joint", "cdf-meixner", "simulate"}
    for query in queries:
        code, text = runner._call(query)
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows
        for row in rows:
            jsonschema.validate(row, lppdist.cli.REPORT_SCHEMA)
        assert workloads.check_report(query, rows) is None


def test_zero_variance_monte_carlo_disagreement_counts_as_failed_not_wrong():
    argv = ["crosscheck", "--q", "1/2", "--m", "1", "--n", "1", "--eta", "20",
            "--methods", "det,mc"]
    ref = 1 - Fraction(1, 2**21)
    query = workloads.Query("cli", {"argv": argv}, [ref], ["dp", "det"])
    assert _outcome(query) == (1, 0)


def test_tracer_restores_bindings_and_reports_missing_attributes_as_absent(monkeypatch):
    original = lppdist.fredholm._kernel_section
    tracer = spans.Tracer()
    tracer.install(lppdist)
    assert lppdist.fredholm._kernel_section is not original
    lppdist.lpp.exact_cdf_dp(Fraction(1, 2), 2, 2, 2)
    tracer.uninstall()
    assert lppdist.fredholm._kernel_section is original
    metrics = tracer.metrics(1)
    assert metrics["lpp.exact_cdf_dp.calls"] == 1
    assert metrics["lpp.dp.states"] == math.comb(4, 2)
    assert set(metrics) == set(spans.METRIC_SOURCES)

    monkeypatch.delattr(lppdist.fredholm, "_kernel_section")
    tracer = spans.Tracer()
    tracer.install(lppdist)
    tracer.uninstall()
    metrics = tracer.metrics(1)
    assert "fredholm.section.calls" not in metrics
    assert "fredholm.section_det_s" not in metrics
    assert "fredholm.cdf_fredholm.calls" in metrics


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(common.CHECKOUT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end == {name: run.unit_of(name) for name in run.END_TO_END}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict.fromkeys(spans.METRIC_SOURCES)
    expected["trace.overhead_ratio"] = None
    assert layer == {name: run.unit_of(name) for name in expected}


@pytest.mark.parametrize("name", common.WORKLOADS)
def test_pass_count_depends_only_on_workload_and_seconds(name):
    # a fixed number of passes makes attempted and failed counts reproducible
    assert workloads.passes_for(name, 25) == workloads.passes_for(name, 25)
    assert workloads.passes_for(name, 1) == 1
    assert workloads.passes_for(name, 600) > workloads.passes_for(name, 25)


def test_contour_passes_open_with_the_q_nine_tenths_fredholm_query():
    workload = workloads.generate("contour", 7)
    for i in range(2):
        first = workload.pass_queries(i)[0]
        assert (first.route, first.params["q"]) == ("fredholm", Fraction(9, 10))
