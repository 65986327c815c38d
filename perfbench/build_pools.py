"""Build the stored query pools and their confirmed exact references.

    python3 perfbench/build_pools.py [exact|contour|crosscheck ...]

Writes `perfbench/pools/<workload>.json`.  A pool is a list of slots; every
pass of a benchmark run takes one entry from every slot, so all passes carry
the same mix of routes, shapes and denominator sizes while the concrete
queries change with the run's seed (see `workloads.py`).

Every reference is confirmed here, once, by two routes that share no code:
dp with det, det with the Meixner box sum, or det with the high-precision
Meixner Gram route for shapes no other exact route reaches; transition and
joint values against an explicit propagation of the chain through
`lpp.one_step_transition`; kernel entries as exact residues against an
independent double trapezoid sum.  A disagreement aborts the build.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

import common

lppdist = common.import_lppdist()
import mpmath  # noqa: E402  (after the package import pins BLAS threads)

BUILDER_SEED = 20261017
DP_CONFIRM_STATES = 600
MEIXNER_CONFIRM_TERMS = 50_000
KERNEL_CONFIRM_TOL = 1e-9

SMALL_Q = sorted({Fraction(a, b) for b in range(5, 13) for a in range(1, b)
                  if Fraction(1, 4) <= Fraction(a, b) <= Fraction(3, 4)})
LARGE_Q = sorted({Fraction(a, b) for b in range(97, 128) for a in range(1, b)
                  if Fraction(1, 4) <= Fraction(a, b) <= Fraction(3, 4)
                  and Fraction(a, b).denominator == b})
# Crosscheck runs every method, Fredholm included, whose quadrature needs
# several times more nodes from q = 3/5 up; small sessions stay below that.
CROSS_Q = sorted({q for q in SMALL_Q if q <= Fraction(5, 9)}
                 | {Fraction(1, 3), Fraction(1, 2)})
Q_CLASSES = {"small": SMALL_Q, "large": LARGE_Q, "cross": CROSS_Q}


# --------------------------------------------------------------------------
# Confirmed references


def _exact_routes(q, m, n, eta):
    """(name, thunk) for the exact cdf routes that are cheap enough here."""
    mm, nn = max(m, n), min(m, n)
    routes = []
    if math.comb(eta + nn, nn) <= DP_CONFIRM_STATES:
        routes.append(("dp", lambda: lppdist.exact_cdf_dp(q, mm, nn, eta)))
    routes.append(("det", lambda: lppdist.cdf_det(lppdist.CdfQuery(q, mm, nn, eta))))
    if nn <= 4 and (eta + nn) ** nn <= MEIXNER_CONFIRM_TERMS:
        routes.append(("meixner", lambda: lppdist.meixner_cdf_bruteforce(
            lppdist.MeixnerEnsembleQuery(q, mm, nn, eta))))
    return routes


def _gram_confirms(q, m, n, eta, value: Fraction) -> bool:
    query = lppdist.MeixnerEnsembleQuery(q, max(m, n), min(m, n), eta)
    precision = 60
    while precision <= 960:
        try:
            gram = lppdist.meixner_cdf_gram(query, precision=precision)
        except lppdist.PrecisionLossError:
            precision *= 2
            continue
        with mpmath.workdps(precision):
            exact = mpmath.mpf(value.numerator) / value.denominator
            return abs(gram - exact) <= mpmath.mpf(10) ** (30 - precision)
    return False


_CDF_CACHE: dict = {}


def confirmed_cdf(q, m, n, eta) -> tuple[Fraction, list[str]]:
    """Exact P[G(m, n) <= eta] agreed on by two independent routes."""
    key = (q, max(m, n), min(m, n), eta)
    if key in _CDF_CACHE:
        return _CDF_CACHE[key]
    routes = _exact_routes(q, m, n, eta)
    if len(routes) >= 2:
        (n1, f1), (n2, f2) = routes[:2]
        v1, v2 = f1(), f2()
        if v1 != v2:
            raise AssertionError(f"{n1} and {n2} disagree at {key}")
        out = (v1, [n1, n2])
    else:
        value = routes[0][1]()
        if not _gram_confirms(q, m, n, eta, value):
            raise AssertionError(f"det and gram disagree at {key}")
        out = (value, ["det", "gram"])
    _CDF_CACHE[key] = out
    return out


def confirmed_transition(q, steps, x, y) -> tuple[Fraction, list[str]]:
    value = lppdist.transition_det(lppdist.TransitionQuery(q, steps, x, y))
    chain = common.transition_chain(lppdist.one_step_transition, q, steps, x, y)
    if value != chain:
        raise AssertionError(f"transition det and chain disagree at {q}, {steps}, {x}, {y}")
    return value, ["det", "chain"]


def confirmed_joint(q, m, n, eta1, eta2, trunc) -> tuple[Fraction, list[str]]:
    value, _ = lppdist.joint_cdf(q, m, n, eta1, eta2, trunc)
    chain = common.joint_chain(lppdist.one_step_transition, q, m, n, eta1, eta2)
    if value != chain:
        raise AssertionError(f"joint det and chain disagree at {q}, {m}, {n}, {eta1}, {eta2}")
    return value, ["det", "chain"]


def confirmed_kernel(q, m, n, x, y) -> tuple[Fraction, list[str]]:
    value = common.kernel_exact(q, m, n, x, y)
    quad = common.kernel_quadrature(q, m, n, x, y)
    if abs(float(value) - quad) > KERNEL_CONFIRM_TOL:
        raise AssertionError(f"kernel residue and quadrature disagree at {q}, {m}, {n}, {x}, {y}")
    return value, ["residue", "quadrature"]


@functools.lru_cache(maxsize=None)
def cdf_curve(q, m, n, upto: float, eta_cap: int) -> list[Fraction]:
    """P[G <= eta] for eta = 0, 1, ... until it reaches `upto` or eta_cap."""
    mm, nn = max(m, n), min(m, n)
    out = []
    for eta in range(eta_cap + 1):
        out.append(lppdist.cdf_det(lppdist.CdfQuery(q, mm, nn, eta)))
        if out[-1] >= upto:
            break
    return out


def body_eta(rng, q, m, n, lo=0.05, hi=0.95) -> int:
    """A threshold drawn uniformly from the body of the law: lo < P[G <= eta] < hi."""
    curve = cdf_curve(q, m, n, hi, 400)
    inside = [eta for eta, p in enumerate(curve) if lo < p < hi]
    return rng.choice(inside)


# --------------------------------------------------------------------------
# Slot specifications


def _qstr(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Builder:
    def __init__(self, workload: str):
        self.rng = random.Random(f"{BUILDER_SEED}:{workload}")
        self.dp_keys: set = set()

    def draw_q(self, cls: str, *, dp_key=None, tries: int = 500) -> Fraction:
        """A q from the class; with dp_key=(n, eta), one whose DP table key is unused."""
        for _ in range(tries):
            q = self.rng.choice(Q_CLASSES[cls])
            if dp_key is None:
                return q
            key = (q, *dp_key)
            if key not in self.dp_keys:
                self.dp_keys.add(key)
                return q
        raise RuntimeError(f"no unused DP key left in class {cls} for {dp_key}")


def cdf_query(route, q, m, n, eta) -> dict:
    ref, by = confirmed_cdf(q, m, n, eta)
    return {"route": route, "q": _qstr(q), "m": m, "n": n, "eta": eta,
            "ref": str(ref), "by": by}


def transition_query(b: Builder, cls, steps, n, gap) -> dict:
    q = b.draw_q(cls)
    x = sorted(b.rng.randrange(0, 4) for _ in range(n))
    # Sorting keeps y >= x componentwise: the k-th smallest of the shifted
    # entries is at least the k-th smallest of x.
    y = sorted(xk + b.rng.randrange(0, gap + 1) for xk in x)
    ref, by = confirmed_transition(q, steps, x, y)
    return {"route": "transition", "q": _qstr(q), "steps": steps, "x": x, "y": y,
            "ref": str(ref), "by": by}


def joint_query(b: Builder, cls, m, n, eta1, eta2) -> dict:
    q = b.draw_q(cls)
    trunc = max(eta1, eta2) + 8
    ref, by = confirmed_joint(q, m, n, eta1, eta2, trunc)
    return {"route": "joint", "q": _qstr(q), "m": m, "n": n, "eta1": eta1, "eta2": eta2,
            "trunc": trunc, "ref": str(ref), "by": by}


EXACT_SLOTS = [
    # (route, q class, m, n, eta), except joint: (.., m, n, (eta1, eta2)) and
    # transition: (.., steps, n, largest gap y_k - x_k).  DP slots keep
    # (n, eta) fixed so that every pass walks the same number of states, and
    # vary only q.
    ("dp", "small", 5, 2, 14),
    ("dp", "large", 4, 3, 7),
    ("dp", "small", 3, 5, 4),
    ("dp", "large", 6, 4, 5),
    ("dp", "small", 5, 4, 6),
    ("dp", "large", 2, 3, 9),
    ("dp", "small", 4, 4, 7),
    ("det", "small", 6, 3, 30),
    ("det", "large", 8, 6, 20),
    ("det", "small", 10, 8, 30),
    ("det", "large", 12, 10, 30),
    ("det", "small", 16, 12, 40),
    ("det", "large", 16, 14, 40),
    ("det", "small", 20, 20, 60),
    ("meixner", "small", 5, 4, 6),
    ("meixner", "large", 4, 3, 8),
    ("meixner", "small", 3, 2, 15),
    ("meixner", "large", 6, 4, 5),
    ("joint", "small", 1, 3, (3, 5)),
    ("joint", "large", 2, 3, (3, 5)),
    ("joint", "small", 1, 2, (4, 7)),
    ("transition", "small", 3, 3, 5),
    ("transition", "large", 5, 4, 4),
    ("transition", "small", 2, 2, 6),
    ("transition", "large", 4, 3, 5),
]

CONTOUR_Q = {"1/3": Fraction(1, 3), "1/2": Fraction(1, 2), "2/3": Fraction(2, 3),
             "9/10": Fraction(9, 10)}

CONTOUR_SLOTS = (
    # Fredholm: q = 9/10 costs about twenty times the rest and sets the peak.
    # Its cost jumps between about 4 s and 17 s with the threshold (the node
    # doubling stops at different counts), so that slot always asks for the
    # median of the law, which keeps every pass equally heavy.
    [("fredholm", q, m, n) for q, m, n in [
        ("1/3", 4, 3), ("1/2", 6, 4), ("2/3", 5, 3), ("1/2", 10, 6),
        ("2/3", 8, 5), ("1/3", 10, 6), ("2/3", 3, 3), ("9/10", 3, 2)]]
    + [("biorth", q, m, n) for q, m, n in [
        ("1/3", 3, 2), ("1/2", 4, 3), ("2/3", 6, 4), ("9/10", 3, 2),
        ("1/3", 10, 6), ("1/2", 8, 5), ("2/3", 10, 6), ("9/10", 6, 4),
        ("1/2", 5, 5), ("2/3", 7, 2), ("9/10", 4, 3), ("1/3", 6, 6),
        ("1/2", 10, 3), ("9/10", 4, 2), ("1/3", 4, 2), ("1/2", 3, 3),
        ("2/3", 4, 4), ("1/3", 8, 8), ("1/2", 6, 2), ("2/3", 5, 5)]]
    + [("kernel", q, m, n) for q in CONTOUR_Q for m, n in [
        (3, 2), (4, 4), (6, 4), (8, 5), (10, 6), (5, 1), (7, 3), (9, 6)]
       if q != "9/10" or m <= 7]
    # Cheap entries enough that p90 falls inside the block of q = 9/10 kernel
    # entries rather than on the step above it.
    + [("kernel", q, m, n) for q in ("1/3", "1/2") for m, n in [
        (2, 2), (3, 3), (5, 5), (6, 6), (7, 7), (4, 2), (6, 3), (8, 4), (2, 1)]]
)

CROSS_GROUPS = [  # (n, two values of m): the pair shares the DP table key (q, n, eta)
    (2, (2, 4)), (3, (2, 4)), (1, (1, 3)), (4, (3, 5)), (2, (1, 5)), (3, (3, 5)),
    (1, (2, 5)),
]
CROSS_SINGLES = [(1, 1), (2, 1), (1, 2), (5, 5), (4, 2), (2, 5), (3, 3), (5, 3), (1, 4),
                 (1, 3), (3, 1)]
CROSS_SIMULATE = [(3, 3, 3), (4, 2, 5)]  # (m, n, number of thresholds)
CROSS_TRANSITION = [(2, 2, 5), (3, 3, 4), (4, 2, 5), (1, 3, 5), (3, 1, 8), (2, 3, 3)]
CROSS_JOINT = [(1, 2, 3, 5), (1, 3, 2, 4)]
CROSS_GRAM = [(4, 3), (5, 5), (3, 2)]
CROSS_STATES = 120      # largest DP table a cold crosscheck command builds
CROSS_TAIL = 1 - Fraction(1, 10**6)
MC_SAMPLES_SIMULATE = 1_000_000


def build_exact(b: Builder, size: int) -> list:
    """Slots of distinct queries: no (route, q, m, n, eta) repeats within a slot."""
    slots = []
    for route, cls, m, n, extra in EXACT_SLOTS:
        entries, seen = [], set()
        while len(entries) < size:
            if route == "joint":
                query = joint_query(b, cls, m, n, *extra)
            elif route == "transition":
                query = transition_query(b, cls, m, n, extra)
            else:
                key = (n, extra) if route == "dp" else None
                query = cdf_query(route, b.draw_q(cls, dp_key=key), m, n, extra)
            ident = json.dumps({k: v for k, v in query.items() if k not in ("ref", "by")},
                               sort_keys=True)
            if ident not in seen:
                seen.add(ident)
                entries.append([query])
        slots.append({"name": f"{route}-{cls}-{m}x{n}", "entries": entries})
    return slots


def build_contour(b: Builder, size: int) -> list:
    slots = []
    for route, qname, m, n in CONTOUR_SLOTS:
        q = CONTOUR_Q[qname]
        entries = []
        for _ in range(size):
            if route == "kernel":
                x, y = b.rng.randrange(0, 9), b.rng.randrange(0, 9)
                ref, by = confirmed_kernel(q, m, n, x, y)
                entries.append([{"route": "kernel", "q": qname, "m": m, "n": n, "x": x,
                                 "y": y, "ref": str(ref), "by": by}])
            else:
                if (route, qname) == ("fredholm", "9/10"):
                    eta = len(cdf_curve(q, m, n, Fraction(1, 2), 400)) - 1
                else:
                    eta = body_eta(b.rng, q, m, n)
                entries.append([cdf_query(route, q, m, n, eta)])
        slots.append({"name": f"{route}-{qname}-{m}x{n}", "entries": entries})
    return slots


def _cross_eta(b: Builder, q, n, ms) -> int:
    """Uniform over 0 .. the smaller of the 1 - 1e-6 quantile and the DP cost cap.

    Both tails of the law are in range on purpose: there Monte Carlo can see
    zero variance, and crosscheck's handling of that must show.
    """
    cap = max(e for e in range(200) if math.comb(e + n, n) <= CROSS_STATES)
    top = min(len(cdf_curve(q, m, n, CROSS_TAIL, cap)) - 1 for m in ms)
    return b.rng.randrange(0, top + 1)


def _crosscheck_cmd(b: Builder, q, m, n, eta) -> dict:
    ref, by = confirmed_cdf(q, m, n, eta)
    seed = b.rng.randrange(0, 2**31)
    argv = ["crosscheck", "--q", _qstr(q), "--m", str(m), "--n", str(n),
            "--eta", str(eta), "--seed", str(seed)]
    return {"route": "cli", "argv": argv, "refs": [str(ref)], "by": by,
            "key": f"{_qstr(q)},{n},{eta}"}


def build_crosscheck(b: Builder, size: int) -> list:
    slots = []
    for n, ms in CROSS_GROUPS:
        entries = []
        for _ in range(size):
            while True:
                q = b.draw_q("cross")
                eta = _cross_eta(b, q, n, ms)
                if (q, n, eta) not in b.dp_keys:
                    b.dp_keys.add((q, n, eta))
                    break
            entries.append([_crosscheck_cmd(b, q, m, n, eta) for m in ms])
        slots.append({"name": f"crosscheck-pair-n{n}-m{ms[0]}-m{ms[1]}", "entries": entries})
    for m, n in CROSS_SINGLES:
        entries = []
        for _ in range(size):
            while True:
                q = b.draw_q("cross")
                eta = _cross_eta(b, q, n, (m,))
                if (q, n, eta) not in b.dp_keys:
                    b.dp_keys.add((q, n, eta))
                    break
            entries.append([_crosscheck_cmd(b, q, m, n, eta)])
        slots.append({"name": f"crosscheck-{m}x{n}", "entries": entries})
    for m, n, count in CROSS_SIMULATE:
        entries = []
        for _ in range(size):
            q = b.draw_q("cross")
            etas = sorted({body_eta(b.rng, q, m, n, 0.02, 0.98) for _ in range(count * 3)})
            etas = sorted(b.rng.sample(etas, min(count, len(etas))))
            refs = [confirmed_cdf(q, m, n, eta) for eta in etas]
            argv = ["simulate", "--q", _qstr(q), "--m", str(m), "--n", str(n),
                    "--eta", ",".join(map(str, etas)),
                    "--samples", str(MC_SAMPLES_SIMULATE),
                    "--seed", str(b.rng.randrange(0, 2**31))]
            entries.append([{"route": "cli", "argv": argv, "refs": [str(r) for r, _ in refs],
                             "by": refs[0][1], "key": None}])
        slots.append({"name": f"simulate-{m}x{n}", "entries": entries})
    for steps, n, gap in CROSS_TRANSITION:
        entries = []
        for _ in range(size):
            t = transition_query(b, "cross", steps, n, gap)
            argv = ["transition", "--q", t["q"], "--steps", str(steps),
                    "--x", ",".join(map(str, t["x"])), "--y", ",".join(map(str, t["y"]))]
            entries.append([{"route": "cli", "argv": argv, "refs": [t["ref"]],
                             "by": t["by"], "key": None}])
        slots.append({"name": f"transition-s{steps}-n{n}", "entries": entries})
    for m, n, eta1, eta2 in CROSS_JOINT:
        entries = []
        for _ in range(size):
            j = joint_query(b, "cross", m, n, eta1, eta2)
            argv = ["joint", "--q", j["q"], "--m", str(m), "--n", str(n),
                    "--eta1", str(eta1), "--eta2", str(eta2)]
            entries.append([{"route": "cli", "argv": argv, "refs": [j["ref"]],
                             "by": j["by"], "key": None}])
        slots.append({"name": f"joint-{m}x{n}", "entries": entries})
    for m, n in CROSS_GRAM:
        entries = []
        for _ in range(size):
            q = b.draw_q("cross")
            eta = body_eta(b.rng, q, m, n)
            ref, by = confirmed_cdf(q, m, n, eta)
            argv = ["cdf-meixner", "--q", _qstr(q), "--m", str(m), "--n", str(n),
                    "--eta", str(eta), "--route", "gram"]
            entries.append([{"route": "cli", "argv": argv, "refs": [str(ref)],
                             "by": by, "key": None}])
        slots.append({"name": f"gram-{m}x{n}", "entries": entries})
    return slots


BUILDERS = {"exact": (build_exact, 16), "contour": (build_contour, 6),
            "crosscheck": (build_crosscheck, 16)}


def main(names) -> int:
    os.makedirs(common.POOL_DIR, exist_ok=True)
    for name in names or common.WORKLOADS:
        build, size = BUILDERS[name]
        start = time.perf_counter()
        slots = build(Builder(name), size)
        path = os.path.join(common.POOL_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "builder_seed": BUILDER_SEED, "slots": slots},
                      fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(slots)} slots x {size} entries in "
              f"{time.perf_counter() - start:.1f} s -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
