"""lppdist benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process runs a closed loop: each query starts when the
previous one has returned and been checked against its stored reference.
Queries come in passes (see `workloads.py`).  A run executes a fixed number
of passes: as many as fill `--seconds` at the seed commit, and at least one
(`workloads.passes_for`), or two with --trace 1.  The work of a run, and so
its `attempted` and `failed` counts, depends only on the workload, `--seed`
and `--seconds`; a faster program finishes the same work sooner.  Only a
program so slow that its passes reach PASS_DEADLINE_S runs fewer of them.

--trace 0 reports the end-to-end metrics:
  setup_s       median of 8 fresh interpreters timed from launch until
                lppdist is imported and the workload is generated, 4
                launched before the passes and 4 after them
  wall_s        median time to answer one pass's query list
  query_p50_ms, query_p90_ms   per-query latency over every pass
  peak_rss_mb   peak resident memory of this process over the first two
                passes (or the only one), so it does not depend on how many
                passes a run makes
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of `spans.py`, per traced pass, plus trace.overhead_ratio (median
traced pass over median untraced pass).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A query fails when it raises, exits
non-zero, or returns a wrong value; `correct` is false when any value
disagreed with its reference.  With `--workload all` each workload runs in
its own process in turn and the last line maps workload names to results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import common  # first: pins BLAS threads before numpy loads
import spans
import workloads

#: Set-up probes launched before the passes and again after them.  On a
#: shared host set-up time can differ by a quarter between moments tens of
#: seconds apart; probes at both ends of a run keep setup_s off one moment.
SETUP_PROBES = 4
#: No pass starts after this many seconds of passes, so a run of a program
#: several times slower than the seed commit still ends within 180 s.
PASS_DEADLINE_S = 120.0
END_TO_END = ("setup_s", "wall_s", "query_p50_ms", "query_p90_ms", "peak_rss_mb")


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


class Runner:
    """Executes queries against the package and checks every answer."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list = []
        self.latencies_ms: list = []
        self.tracer = None

    def _call(self, query):
        p, pkg = query.params, self.pkg
        route = query.route
        if route == "dp":
            return pkg.lpp.exact_cdf_dp(p["q"], p["m"], p["n"], p["eta"])
        if route == "det":
            return pkg.detformulas.cdf_det(pkg.detformulas.CdfQuery(p["q"], p["m"], p["n"], p["eta"]))
        if route == "meixner":
            return pkg.meixner.meixner_cdf_bruteforce(
                pkg.meixner.MeixnerEnsembleQuery(p["q"], p["m"], p["n"], p["eta"]))
        if route == "joint":
            return pkg.detformulas.joint_cdf(
                p["q"], p["m"], p["n"], p["eta1"], p["eta2"], p["trunc"])[0]
        if route == "transition":
            return pkg.detformulas.transition_det(
                pkg.detformulas.TransitionQuery(p["q"], p["steps"], p["x"], p["y"]))
        if route == "fredholm":
            return pkg.fredholm.cdf_fredholm(pkg.fredholm.KernelSpec(p["q"], p["m"], p["n"]), p["eta"])[0]
        if route == "biorth":
            return pkg.fredholm.cdf_biorth(pkg.fredholm.KernelSpec(p["q"], p["m"], p["n"]), p["eta"])
        if route == "kernel":
            return pkg.fredholm.kernel_eval(pkg.fredholm.KernelSpec(p["q"], p["m"], p["n"]), p["x"], p["y"])
        if route == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.pkg.cli.main(list(p["argv"]))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return code, out.getvalue()
        raise ValueError(f"unknown route {route!r}")

    def _check(self, query, answer):
        """(failure reason or None, wrong value?) for one answer."""
        if query.route == "cli":
            code, text = answer
            if self.tracer is not None:
                self.tracer.counters["cli.report_bytes"] += len(text.encode())
            try:
                rows = [json.loads(line) for line in text.splitlines() if line.strip()]
                bad = workloads.check_report(query, rows)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                bad = f"unreadable report: {exc!r}"
            if bad:
                return bad, True
            return (f"exit {code}", False) if code != 0 else (None, False)
        ref = query.refs[0]
        if query.route in ("fredholm", "biorth", "kernel"):
            bad = workloads.check_float(answer, ref)
        else:
            bad = workloads.check_exact(answer, ref)
        return bad, bad is not None

    def run_pass(self, queries, *, record_latency: bool) -> float:
        wall = 0.0
        for query in queries:
            self.attempted += 1
            start = time.perf_counter()
            try:
                answer = self._call(query)
            except Exception as exc:  # a raising route is a failed query, not a crash
                elapsed = time.perf_counter() - start
                reason, wrong = f"raised {type(exc).__name__}: {exc}", False
            else:
                elapsed = time.perf_counter() - start
                reason, wrong = self._check(query, answer)
            wall += elapsed
            if record_latency:
                self.latencies_ms.append(elapsed * 1000.0)
            if reason is not None:
                self.failed += 1
                self.wrong += wrong
                self.failures.append((query.label(), reason))
        return wall


def measure(runner, workload, passes: int, tracer=None):
    """Run `passes` passes of the workload, or fewer past PASS_DEADLINE_S.

    With a tracer, odd passes are traced and even ones are not, so drift in
    the machine hits both alike.  Returns (untraced walls, traced walls,
    queries, peak RSS in MB once the first two passes, or the only one, are
    done).
    """
    plain, traced, executed = [], [], []
    peak_mb = None
    start = time.perf_counter()
    for index in range(passes):
        if index >= 2 and time.perf_counter() - start > PASS_DEADLINE_S:
            break
        queries = workload.pass_queries(index)
        executed.extend(queries)
        if tracer is not None and index % 2 == 1:
            runner.tracer = tracer
            tracer.install(runner.pkg)
            try:
                traced.append(runner.run_pass(queries, record_latency=False))
            finally:
                tracer.uninstall()
                runner.tracer = None
        else:
            plain.append(runner.run_pass(queries, record_latency=True))
        if index == min(passes, 2) - 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return plain, traced, executed, peak_mb


def setup_times(name: str, seed: int) -> list:
    """Launch-to-ready seconds of fresh interpreters that import and generate."""
    probe = os.path.join(common.BENCH_DIR, "workloads.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, "--workload", name, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe exited {code}")
        times.append(ready)
    return times


def run_one(args) -> int:
    try:
        pkg = common.import_lppdist()
    except ImportError as exc:
        print(f"cannot import lppdist from {common.SRC}: {exc}", file=sys.stderr)
        return 1
    workload = workloads.generate(args.workload, args.seed)
    runner = Runner(pkg)
    tracer = spans.Tracer() if args.trace else None
    setup = None if args.trace else setup_times(args.workload, args.seed)
    passes = workloads.passes_for(args.workload, args.seconds)
    if tracer is not None:
        passes = max(passes, 2)  # at least one untraced and one traced pass
    plain, traced, executed, peak_mb = measure(runner, workload, passes, tracer)
    if setup is not None:
        setup += setup_times(args.workload, args.seed)

    lat = runner.latencies_ms
    deciles = statistics.quantiles(lat, n=10)
    p50, p90 = deciles[4], deciles[8]
    beyond = sum(1 for x in lat if x > p90)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} "
          f"traced passes, {runner.attempted} queries, {len(lat)} latency samples "
          f"({beyond} beyond p90)")
    print("  pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in plain)
          + ("; traced " + " ".join(f"{w:.3f}" for w in traced) if traced else ""))
    print(f"  repeat share (DP table key seen earlier in the run): "
          f"{workloads.repeat_share(executed):.4f}")
    print(f"  error_rate {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} failed / {runner.attempted} attempted, {runner.wrong} wrong values)")
    for label, reason in runner.failures[:20]:
        print(f"  failed: {label}: {reason}")

    if args.trace:
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        for name in sorted(spans.METRIC_SOURCES):
            if name not in metrics:
                print(f"  absent: {name} (its traced attribute no longer exists)")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "peak_rss_mb": peak_mb,
        }
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}")
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in common.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if not line.startswith("{"):
                    sys.stdout.write(line)
            code = proc.wait()
        if code != 0 or not lines:
            print(f"workload {name} exited {code}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
