"""Run every stored query of a workload once and list the ones that fail.

    python3 perfbench/failures.py crosscheck

Prints one JSON object: the number of queries run and, for each failure,
the query and the reason (raised, non-zero exit, or wrong value).  The
benchmark's runs draw from the same pools, so this is the full list of
queries that can fail in them at the current commit.
"""

from __future__ import annotations

import json
import sys

import common
import run
import workloads


def main(argv) -> int:
    pkg = common.import_lppdist()
    out = {}
    for name in argv or common.WORKLOADS:
        runner = run.Runner(pkg)
        queries = [query for slot in workloads.load_pool(name) for entry in slot for query in entry]
        runner.run_pass(queries, record_latency=False)
        out[name] = {
            "queries": runner.attempted,
            "failed": [{"query": label, "reason": reason} for label, reason in runner.failures],
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
