"""Command-line front end: individual evaluators plus the cross-check harness.

Reports are JSON Lines on stdout (one object per line, schema published as
REPORT_SCHEMA) or CSV with --csv; diagnostics go to stderr.  Exit status is 0
for success/agreement, 2 when a cross-check finds disagreement, 1 for usage or
runtime errors and, without a traceback, when the reader closes stdout before
the report is written.  The model parameter q is accepted only as an exact
rational literal such as 1/2 or 3/10, never as a decimal.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath

from .detformulas import CdfQuery, cdf_det, joint_cdf, transition_det, TransitionQuery
from .fredholm import _SECTION_CAP, NUMERIC_TOL, KernelSpec, cdf_biorth, cdf_fredholm
from .lpp import exact_cdf_dp, mc_cdf, mc_cdfs
from .meixner import MeixnerEnsembleQuery, meixner_cdf_bruteforce, meixner_cdf_gram
from .weights import (ContourConfig, GeometricParameter, OrderedVector, PrecisionLossError,
                      QuadratureError, StateSpaceError)

__all__ = ["main", "REPORT_SCHEMA", "METHOD_ENTRY_SCHEMA", "CROSSCHECK_METHODS"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2

#: z of the Wilson score interval that bounds Monte Carlo agreement.
MC_SIGMA = 4.0
#: Seeds key a Philox stream, whose keys lie in [0, 2**128).
SEED_LIMIT = 2**128

#: Typed errors on valid arguments: reported as a message, never as a traceback.
_ROUTE_ERRORS = (ValueError, StateSpaceError, QuadratureError, PrecisionLossError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _contour_for(args) -> ContourConfig:
    overrides = {key: getattr(args, key) for key in ("r2", "r1", "nodes")
                 if getattr(args, key) is not None}
    return dataclasses.replace(ContourConfig.for_q(args.q), **overrides)


def _wilson_reach(p: float, samples: int) -> float:
    """Distance from p to the far end of its Wilson score interval at z = MC_SIGMA.

    Unlike MC_SIGMA standard errors, the band stays open at p = 0 and p = 1,
    where it is z^2 / (samples + z^2) wide.
    """
    z2n = MC_SIGMA**2 / samples
    centre = (p + z2n / 2) / (1 + z2n)
    half = MC_SIGMA * math.sqrt(p * (1 - p) / samples + z2n / (4 * samples)) / (1 + z2n)
    return abs(p - centre) + half


def _rational_text(fr: Fraction) -> str:
    """str(fr) at any size: Decimal formats an int without the int-to-str digit limit."""
    text = str(Decimal(fr.numerator))
    return text if fr.denominator == 1 else f"{text}/{Decimal(fr.denominator)}"


def _exact(value: Fraction):
    return {"value": _fmt(value), "exact": _rational_text(value), "error_estimate": "0"}, 0.0, value


def _numeric(value: float, **extra):
    fields = {"value": _fmt(value), "exact": None, "error_estimate": _fmt(NUMERIC_TOL), **extra}
    return fields, NUMERIC_TOL, value


def _meixner(args, m: int, n: int):
    query = MeixnerEnsembleQuery(args.q, m, n, args.eta)
    if getattr(args, "route", "bruteforce") == "bruteforce":
        return _exact(meixner_cdf_bruteforce(query))
    value = meixner_cdf_gram(query, precision=args.precision)
    return {"value": mpmath.nstr(value, 17), "exact": None, "error_estimate": None}, 0.0, value


def _fredholm(args, m: int, n: int):
    spec = KernelSpec(args.q, m, n, variant=args.variant, cfg=_contour_for(args))
    value, increment = cdf_fredholm(spec, args.eta, args.trunc, allow_printed=True)
    return _numeric(value, increment=_fmt(increment))


def _mc_fields(p: float, stderr: float) -> dict:
    return {"value": _fmt(p), "exact": None, "error_estimate": _fmt(stderr)}


def _mc(args, m: int, n: int):
    p, stderr = mc_cdf(args.q, m, n, args.eta, args.samples, args.seed)
    return _mc_fields(p, stderr), _wilson_reach(p, args.samples), p


#: method -> (whether the route transposes m < n grids, evaluator).  An evaluator
#: maps (args, m, n) to (report fields, agreement tolerance, value compared with
#: the other routes: a Fraction for exact routes, else a float).  It looks the
#: library functions up as module globals each time it runs.
ROUTES = {
    "biorth": (True, lambda args, m, n: _numeric(
        cdf_biorth(KernelSpec(args.q, m, n, cfg=_contour_for(args)), args.eta))),
    "det": (True, lambda args, m, n: _exact(cdf_det(CdfQuery(args.q, m, n, args.eta)))),
    "dp": (False, lambda args, m, n: _exact(exact_cdf_dp(args.q, m, n, args.eta))),
    "fredholm": (True, _fredholm),
    "mc": (False, _mc),
    "meixner": (True, _meixner),
}

CROSSCHECK_METHODS = tuple(ROUTES)

#: CSV columns after the params for reports with one entry per method.
METHOD_COLUMNS = ("method", "value", "exact", "error_estimate", "wall_ms", "failure")

METHOD_ENTRY_SCHEMA = {
    "type": "object",
    "required": ["method"],
    "properties": {
        "method": {"enum": list(CROSSCHECK_METHODS)},
        "value": {"type": "string"},
        "exact": {"type": ["string", "null"]},
        "error_estimate": {"type": ["string", "null"]},
        "wall_ms": {"type": "number"},
        "increment": {"type": "string"},
        "failure": {"type": "string"},
    },
    "additionalProperties": False,
}

_VALUE_SCHEMA = {
    "type": "object",
    "required": ["rational", "decimal"],
    "properties": {"rational": {"type": "string"}, "decimal": {"type": "string"}},
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "lppdist report row",
    "type": "object",
    "required": ["command", "params"],
    "properties": {
        "command": {"enum": ["simulate", "cdf-det", "cdf-meixner", "cdf-biorth",
                             "cdf-fredholm", "crosscheck", "transition", "joint"]},
        "params": {"type": "object"},
        "methods": {"type": "array", "items": METHOD_ENTRY_SCHEMA, "minItems": 1},
        "agreement": {"type": "boolean"},
        "comparisons": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pair", "delta", "tolerance", "ok"],
                "properties": {
                    "pair": {"type": "string"},
                    "delta": {"type": "string"},
                    "tolerance": {"type": "string"},
                    "ok": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "value": _VALUE_SCHEMA,
        "increment": _VALUE_SCHEMA,
    },
    "additionalProperties": False,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_q(text: str) -> GeometricParameter:
    if "." in text:
        raise argparse.ArgumentTypeError(
            f"q must be an exact rational literal like 1/2 or 3/10, not a decimal ({text!r})")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse q from {text!r}: {exc}") from None
    try:
        return GeometricParameter(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_vector(text: str) -> OrderedVector:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse integer vector from {text!r}") from None
    try:
        return OrderedVector(entries)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_eta_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse threshold list from {text!r}") from None
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("thresholds must be >= 0")
    return values


def _parse_methods(text: str) -> list[str]:
    """Sorted distinct method names; the dynamic-programming anchor is always added."""
    names = {part.strip() for part in text.split(",")} - {""}
    if not names:
        raise argparse.ArgumentTypeError("method list must not be empty")
    bad = sorted(names - set(ROUTES))
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown methods {bad}; choose from {CROSSCHECK_METHODS}")
    return sorted(names | {"dp"})


def _int_in(kind: str, low: int, high: int | None = None):
    """Parser of an integer in [low, high), or of one >= low when high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{kind} must be >= {low}, got {value}")
        if high is not None and value >= high:
            raise argparse.ArgumentTypeError(f"{kind} must be < {high}, got {value}")
        return value

    return parse


def _params(args, *names: str) -> dict:
    return {name: str(args.q) if name == "q" else getattr(args, name) for name in names}


def _rational_value(fr: Fraction) -> dict:
    return {"rational": _rational_text(fr), "decimal": _fmt(float(fr))}


def _run_method(name: str, args) -> tuple[dict, float, object]:
    """Run one route, timed: (report entry, agreement tolerance, compared value).

    A route that raises one of the typed errors is reported on stderr and in
    the entry's `failure`; the other two items are then meaningless.
    """
    transposes, evaluate = ROUTES[name]
    m, n = sorted((args.m, args.n), reverse=True) if transposes else (args.m, args.n)
    start = time.perf_counter()
    try:
        fields, tolerance, value = evaluate(args, m, n)
    except _ROUTE_ERRORS as exc:
        print(f"error: method {name} failed: {exc}", file=sys.stderr)
        fields, tolerance, value = {"failure": str(exc)}, 0.0, None
    wall_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return {"method": name, **fields, "wall_ms": wall_ms}, tolerance, value


def _compare(results: list[tuple[dict, float, object]]) -> tuple[bool, list[dict]]:
    """Pairwise agreement among successful methods at their summed tolerances.

    Exact routes differ by a Fraction, so only equality passes their 0 tolerance.
    """
    done = [result for result in results if "failure" not in result[0]]
    comparisons = []
    for i, (a, tol_a, value_a) in enumerate(done):
        for b, tol_b, value_b in done[i + 1:]:
            delta, tolerance = abs(value_a - value_b), tol_a + tol_b
            comparisons.append({"pair": f"{a['method']}/{b['method']}", "delta": _fmt(delta),
                                "tolerance": _fmt(tolerance), "ok": delta <= tolerance})
    return len(done) >= 2 and all(c["ok"] for c in comparisons), comparisons


def _emit(args, rows: list[dict], columns: tuple[str, ...]) -> None:
    """Print report rows as JSON Lines, or with --csv as CSV.

    A CSV record holds a row's params, then `columns`, drawn from one method
    entry per record, from the row itself (`agreement`), or from its `value`
    and `increment` split into `_rational` and `_decimal` cells.
    """
    if not args.csv:
        for row in rows:
            print(json.dumps(row, separators=(",", ":")))
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=[*rows[0]["params"], *columns],
                            extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        flat = {**row, **row["params"]}
        for key in ("value", "increment"):
            if isinstance(row.get(key), dict):
                flat.update({f"{key}_{part}": text for part, text in row[key].items()})
        for entry in row.get("methods", [{}]):
            writer.writerow({**flat, **entry})


def _cmd_simulate(args) -> int:
    params = _params(args, "q", "m", "n", "samples", "seed")
    estimates = mc_cdfs(args.q, args.m, args.n, args.eta, args.samples, args.seed)
    rows = [{"command": "simulate", "params": dict(params, eta=eta),
             "methods": [{"method": "mc", **_mc_fields(p, stderr)}]}
            for eta, (p, stderr) in zip(args.eta, estimates)]
    _emit(args, rows, ("method", "value", "error_estimate"))
    return EXIT_OK


def _cmd_route(args) -> int:
    """cdf-det, cdf-meixner, cdf-biorth and cdf-fredholm: one route, one row."""
    entry, _, _ = _run_method(args.method, args)
    if "failure" in entry:
        return EXIT_USAGE
    gram = getattr(args, "route", None) == "gram"
    extra = ("route", "precision") if gram else args.extra_params
    params = _params(args, "q", "m", "n", "eta", *extra)
    report = {"command": args.command, "params": params, "methods": [entry]}
    _emit(args, [report], ("method", "value", "wall_ms") if gram else METHOD_COLUMNS)
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    results = [_run_method(name, args) for name in args.methods]
    agreement, comparisons = _compare(results)
    report = {"command": "crosscheck",
              "params": _params(args, "q", "m", "n", "eta", "samples", "seed", "variant"),
              "methods": [entry for entry, _, _ in results],
              "agreement": agreement, "comparisons": comparisons}
    _emit(args, [report], METHOD_COLUMNS + ("agreement",))
    return EXIT_OK if agreement else EXIT_DISAGREE


def _cmd_transition(args) -> int:
    if len(args.x) != len(args.y):
        raise ValueError("endpoint vectors must have equal length")
    value = transition_det(TransitionQuery(args.q, args.steps, args.x, args.y))
    params = dict(_params(args, "q", "steps"),
                  x=",".join(str(v) for v in args.x), y=",".join(str(v) for v in args.y))
    report = {"command": "transition", "params": params, "value": _rational_value(value)}
    _emit(args, [report], ("value_rational", "value_decimal"))
    return EXIT_OK


def _cmd_joint(args) -> int:
    if args.trunc is None:
        args.trunc = max(args.eta1, args.eta2) + 8
    value, increment = joint_cdf(args.q, args.m, args.n, args.eta1, args.eta2, args.trunc)
    report = {"command": "joint", "params": _params(args, "q", "m", "n", "eta1", "eta2", "trunc"),
              "value": _rational_value(value), "increment": _rational_value(increment)}
    _emit(args, [report],
          ("value_rational", "value_decimal", "increment_rational", "increment_decimal"))
    return EXIT_OK


def _add_model_args(sub, *, eta_list: bool = False) -> None:
    sub.add_argument("--q", type=_parse_q, required=True,
                     help="geometric parameter as an exact rational, e.g. 1/2")
    sub.add_argument("--m", type=_int_in("m", 1), required=True, help="number of rows")
    sub.add_argument("--n", type=_int_in("n", 1), required=True, help="number of columns")
    if eta_list:
        sub.add_argument("--eta", type=_parse_eta_list, required=True,
                         help="threshold or comma list of thresholds")
    else:
        sub.add_argument("--eta", type=_int_in("eta", 0), required=True,
                         help="distribution threshold")


def _add_contour_args(sub) -> None:
    sub.add_argument("--r2", type=float, help="inner contour radius (default (1/q)^(1/3))")
    sub.add_argument("--r1", type=float, help="outer contour radius (default (1/q)^(2/3))")
    sub.add_argument("--nodes", type=_int_in("nodes", 1), help="starting quadrature node count")


def _add_fredholm_args(sub) -> None:
    sub.add_argument("--trunc", type=_int_in("trunc", 1, _SECTION_CAP), default=16,
                     help=f"initial finite-section size, below the section cap {_SECTION_CAP}")
    sub.add_argument("--kernel-variant", choices=("derivation", "printed"),
                     default="derivation", dest="variant")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lppdist",
                     description="Evaluate and cross-validate last-passage time distributions.")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of JSON Lines")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="Monte Carlo estimate of P[G(m,n) <= eta]")
    _add_model_args(sim, eta_list=True)
    sim.add_argument("--samples", type=_int_in("samples", 1), required=True)
    sim.add_argument("--seed", type=_int_in("seed", 0, SEED_LIMIT), default=0)
    sim.set_defaults(func=_cmd_simulate)

    det = commands.add_parser("cdf-det", help="finite difference determinant route")
    _add_model_args(det)
    det.set_defaults(func=_cmd_route, method="det", extra_params=())

    meix = commands.add_parser("cdf-meixner", help="Meixner ensemble route")
    _add_model_args(meix)
    meix.add_argument("--route", choices=("bruteforce", "gram"), default="bruteforce")
    meix.add_argument("--precision", type=_int_in("precision", 1), default=50,
                      help="working digits for the gram route")
    meix.set_defaults(func=_cmd_route, method="meixner", extra_params=())

    bio = commands.add_parser("cdf-biorth", help="biorthogonal pairing determinant route")
    _add_model_args(bio)
    _add_contour_args(bio)
    bio.set_defaults(func=_cmd_route, method="biorth", extra_params=())

    fred = commands.add_parser("cdf-fredholm", help="Fredholm finite-section route")
    _add_model_args(fred)
    _add_contour_args(fred)
    _add_fredholm_args(fred)
    fred.set_defaults(func=_cmd_route, method="fredholm", extra_params=("variant", "trunc"))

    cross = commands.add_parser("crosscheck", help="run several methods and compare")
    _add_model_args(cross)
    _add_contour_args(cross)
    cross.add_argument("--methods", type=_parse_methods, default=",".join(CROSSCHECK_METHODS),
                       help="comma list from {%s}" % ",".join(CROSSCHECK_METHODS))
    cross.add_argument("--samples", type=_int_in("samples", 1), default=100_000)
    cross.add_argument("--seed", type=_int_in("seed", 0, SEED_LIMIT), default=0)
    _add_fredholm_args(cross)
    cross.set_defaults(func=_cmd_crosscheck)

    trans = commands.add_parser("transition", help="multi-step transition determinant")
    trans.add_argument("--q", type=_parse_q, required=True)
    trans.add_argument("--steps", type=_int_in("steps", 0), required=True)
    trans.add_argument("--x", type=_parse_vector, required=True,
                       help="start state, weakly increasing comma list")
    trans.add_argument("--y", type=_parse_vector, required=True,
                       help="end state, weakly increasing comma list")
    trans.set_defaults(func=_cmd_transition)

    joint = commands.add_parser("joint", help="two-point joint distribution value")
    joint.add_argument("--q", type=_parse_q, required=True)
    joint.add_argument("--m", type=_int_in("m", 1), required=True)
    joint.add_argument("--n", type=_int_in("n", 1), required=True)
    joint.add_argument("--eta1", type=_int_in("eta1", 0), required=True)
    joint.add_argument("--eta2", type=_int_in("eta2", 0), required=True)
    joint.add_argument("--trunc", type=_int_in("trunc", 0), default=None,
                       help="free-coordinate cutoff, must be >= max(eta1,eta2) and never "
                            "changes the value (default max(eta1,eta2)+8)")
    joint.set_defaults(func=_cmd_joint)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process.

    Parsing leaves it unchanged: no action appends to a shared default, and
    usage errors look up sys.stderr when they are printed.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        # A report still in the buffer fails here, not at interpreter exit.
        sys.stdout.flush()
        return status
    except _ROUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Point the descriptor at
        # devnull so that the final flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
