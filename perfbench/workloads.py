"""Seeded workloads drawn from the stored pools, and the checks on every answer.

A workload is a sequence of passes.  Pass i takes, from every slot of the
pool, the entry at position i of a seed-dependent permutation of that slot
(or the whole slot, see WHOLE_SLOTS), and runs the resulting queries in a
seed-dependent order (after those LEADS names).  So every pass has the same mix of routes and sizes,
the same seed always gives the same queries, and within one run no DP table
key (q, n, eta) comes back in a later pass until a slot's entries are used
up.  `crosscheck` pairs commands that
share a key inside one pass; those are the workload's only cache reuse.

Run as a script, this module is the set-up probe that `run.py` times: it
imports the package, generates the workload and reports ready.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import common

#: Absolute agreement required of float routes against the exact reference.
FLOAT_TOL = 1e-8
#: Monte Carlo must land within this many standard errors of the exact value.
MC_SIGMA = 4.0
#: Median seconds of one untraced pass at the seed commit (2-core x86-64
#: host, Python 3.11).  A run executes a fixed number of passes derived from
#: these and `--seconds`, so the same seed and `--seconds` always run the
#: same queries and fail the same ones, however fast the host is that day.
PASS_SECONDS = {"exact": 4.66, "contour": 33.0, "crosscheck": 4.47}


#: Routes whose slots every pass takes whole, by workload.  contour's latency
#: quantiles fall among its cheap kernel and biorth queries; running every
#: entry of those slots keeps the quantiles from hanging on which entries the
#: seed picks, and its one pass from hanging on which are left out.
WHOLE_SLOTS = {"contour": {"kernel", "biorth"}}


#: (route, q) of the queries that open every pass of a workload.  contour's
#: q = 9/10 Fredholm query peaks near 0.9 GB, and the cheap queries after it
#: run about a fifth slower than those before it; left to the shuffle, its
#: place moved contour's query_p50_ms by up to a quarter between seeds.
LEADS = {"contour": ("fredholm", Fraction(9, 10))}


def takes_whole(name: str, slot: list) -> bool:
    return slot[0][0].route in WHOLE_SLOTS.get(name, ())


def passes_for(name: str, seconds: float) -> int:
    """Number of passes that fill `seconds` at the seed commit; at least one."""
    return max(1, round(seconds / PASS_SECONDS[name]))


@dataclass
class Query:
    route: str
    params: dict
    refs: list  # exact Fractions; one per report row for CLI queries
    by: list
    key: str | None = None

    def label(self) -> str:
        if self.route == "cli":
            return " ".join(self.params["argv"])
        shown = {k: str(v) if isinstance(v, Fraction) else v for k, v in self.params.items()}
        return f"{self.route} {json.dumps(shown, separators=(',', ':'))}"


@dataclass
class Workload:
    name: str
    seed: int
    slots: list  # list of list of entries; an entry is a list of Query
    order: list = field(default_factory=list)  # per-slot permutation

    def pass_queries(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:pass:{index}")
        queries = []
        for slot, perm in zip(self.slots, self.order):
            if takes_whole(self.name, slot):
                for entry in slot:
                    queries.extend(entry)
            else:
                queries.extend(slot[perm[index % len(perm)]])
        rng.shuffle(queries)
        lead = LEADS.get(self.name)
        if lead is not None:  # a stable sort keeps the shuffled order otherwise
            queries.sort(key=lambda q: (q.route, q.params.get("q")) != lead)
        return queries


def _query(raw: dict) -> Query:
    refs = [Fraction(r) for r in raw.get("refs", [raw.get("ref")])]
    by = list(raw["by"])
    if len(set(by)) != 2:
        raise ValueError(f"reference not confirmed by two distinct routes: {raw}")
    params = {k: v for k, v in raw.items() if k not in ("route", "ref", "refs", "by", "key")}
    if "q" in params:
        params["q"] = Fraction(params["q"])
    return Query(raw["route"], params, refs, by, raw.get("key"))


def load_pool(name: str) -> list:
    path = os.path.join(common.POOL_DIR, f"{name}.json")
    with open(path) as fh:
        data = json.load(fh)
    return [[[_query(raw) for raw in entry] for entry in slot["entries"]]
            for slot in data["slots"]]


def generate(name: str, seed: int) -> Workload:
    if name not in common.WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {common.WORKLOADS}")
    slots = load_pool(name)
    rng = random.Random(f"{name}:{seed}")
    order = []
    for slot in slots:
        perm = list(range(len(slot)))
        rng.shuffle(perm)
        order.append(perm)
    return Workload(name, seed, slots, order)


def repeat_share(queries) -> float:
    """Share of queries whose DP table key (q, n, eta) an earlier query used."""
    seen: set = set()
    repeats = 0
    for query in queries:
        if query.key is not None:
            repeats += query.key in seen
            seen.add(query.key)
    return repeats / len(queries) if queries else 0.0


# --------------------------------------------------------------------------
# Checks.  Each returns None when the answer is right, else a reason.


def check_exact(value, ref: Fraction):
    if isinstance(value, str):
        value = Fraction(value)
    return None if value == ref else f"exact value {value} != reference {ref}"


def check_float(value, ref: Fraction):
    diff = abs(float(value) - float(ref))
    return None if diff <= FLOAT_TOL else f"float value {value} is {diff:.3g} from reference"


def check_mc(value, ref: Fraction, samples: int):
    """Within MC_SIGMA standard errors of the exact p, plus one sample's weight.

    The standard error comes from the exact p, not from the estimate, so an
    estimate of exactly 0 or 1 is still judged by a band of honest width.
    """
    p = float(ref)
    band = MC_SIGMA * math.sqrt(p * (1.0 - p) / samples) + 1.0 / samples
    diff = abs(float(value) - p)
    return None if diff <= band else f"mc value {value} is {diff:.3g} from p={p:.6g} (band {band:.3g})"


def check_report(query: Query, rows: list):
    """Check every value in the captured CLI report rows against the references."""
    command = query.params["argv"][0]
    if command == "crosscheck":
        (row,) = rows
        ref = query.refs[0]
        for entry in row["methods"]:
            if "failure" in entry:
                continue
            method = entry["method"]
            if method in ("dp", "det", "meixner"):
                bad = check_exact(entry["exact"], ref)
            elif method == "mc":
                bad = check_mc(entry["value"], ref, row["params"]["samples"])
            else:
                bad = check_float(entry["value"], ref)
            if bad:
                return f"{method}: {bad}"
        return None
    if command == "simulate":
        if len(rows) != len(query.refs):
            return f"expected {len(query.refs)} rows, got {len(rows)}"
        for row, ref in zip(rows, query.refs):
            bad = check_mc(row["methods"][0]["value"], ref, row["params"]["samples"])
            if bad:
                return bad
        return None
    (row,) = rows
    if command in ("transition", "joint"):
        return check_exact(row["value"]["rational"], query.refs[0])
    if command == "cdf-meixner":
        return check_float(row["methods"][0]["value"], query.refs[0])
    return f"no check for command {command!r}"


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="set-up probe: import and generate")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    common.import_lppdist()
    workload = generate(args.workload, args.seed)
    print(f"ready {sum(len(s) for s in workload.slots)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
