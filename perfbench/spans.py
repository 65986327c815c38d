"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install()` rebinds module attributes of `lppdist` to timing wrappers
and `Tracer.uninstall()` puts the originals back; nothing under `src/` is
edited.  A span records calls, total time and the time of wrapped spans that
ran directly inside it, so a layer's self time is total minus children.
Spans and counters are summed in memory, per name, while installed.

Each wrapper is listed with the module that defines the function (its home)
and the modules that import it by name, because a `from .x import f` binding
has to be rebound where the caller looks it up.  If a home attribute or its
module is gone after a refactor, the metrics it feeds are reported as absent
instead of the run failing; a missing secondary binding is skipped.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

# (span name, home module, attribute, other modules importing it by name, kind)
# kind "span" times the call; "count" only runs its hook; "quadrature" counts
# the refinements and nodes of the `evaluate` callable it is handed.
SPANS = [
    ("lpp.exact_cdf_dp", "lpp", "exact_cdf_dp", ("cli",), "span"),
    ("lpp.dp.table", "lpp", "_transition_table", (), "span"),
    ("lpp.mc_cdf", "lpp", "mc_cdf", ("cli",), "span"),
    ("lpp.mc.inverse_cdf", "lpp", "_geometric_from_uniform", (), "span"),
    ("lpp.mc.kernel", "lpp", "_last_passage_final_batch", (), "span"),
    ("detformulas.cdf_det", "detformulas", "cdf_det", ("cli",), "span"),
    ("detformulas.entries", "detformulas", "delta_neg_binomial", (), "span"),
    ("detformulas.bareiss_determinant", "detformulas", "bareiss_determinant", ("meixner",), "span"),
    ("detformulas.joint_cdf", "detformulas", "joint_cdf", ("cli",), "span"),
    ("detformulas.transition_det", "detformulas", "transition_det", ("cli",), "span"),
    ("weights.neg_binomial", "weights", "neg_binomial", (), "count"),
    ("meixner.meixner_cdf_bruteforce", "meixner", "meixner_cdf_bruteforce", ("cli",), "span"),
    ("meixner.partition_function", "meixner", "partition_function", (), "span"),
    ("meixner.meixner_cdf_gram", "meixner", "meixner_cdf_gram", ("cli",), "span"),
    ("fredholm.cdf_fredholm", "fredholm", "cdf_fredholm", ("cli",), "span"),
    ("fredholm.section", "fredholm", "_kernel_section", (), "span"),
    ("fredholm.cdf_biorth", "fredholm", "cdf_biorth", ("cli",), "span"),
    ("fredholm.ab_values", "fredholm", "_a_values", (), "span"),
    ("fredholm.ab_values", "fredholm", "_b_values", (), "span"),
    ("fredholm.quadrature", "fredholm", "_adaptive_batch", (), "quadrature"),
    ("fredholm.kernel_eval", "fredholm", "kernel_eval", (), "span"),
    ("cli.main", "cli", "main", (), "span"),
]


def _hook_dp(c, q, m, n, eta, *_, **__):
    if eta >= 0:
        c["lpp.dp.states"] += math.comb(eta + n, n)


def _hook_mc(c, q, m, n, eta, samples, *_, **__):
    c["lpp.mc.samples"] += samples


def _hook_bareiss(c, matrix, *_, **__):
    c["detformulas.bareiss.dim_cubed"] += len(matrix) ** 3


def _hook_neg_binomial(c, *_, **__):
    c["weights.neg_binomial.calls"] += 1


def _hook_box(c, mq, *_, **__):
    if mq.eta >= 0:
        c["meixner.box_terms"] += (mq.eta + mq.n) ** mq.n


def _hook_section(c, spec, eta, size, *_, **__):
    c["fredholm.section.max_size"] = max(c["fredholm.section.max_size"], size)


HOOKS = {
    "lpp.exact_cdf_dp": _hook_dp,
    "lpp.mc_cdf": _hook_mc,
    "detformulas.bareiss_determinant": _hook_bareiss,
    "weights.neg_binomial": _hook_neg_binomial,
    "meixner.meixner_cdf_bruteforce": _hook_box,
    "fredholm.section": _hook_section,
}

# Per-layer metric -> the spans whose home binding it needs.
METRIC_SOURCES = {
    "lpp.exact_cdf_dp.calls": ["lpp.exact_cdf_dp"],
    "lpp.exact_cdf_dp.s": ["lpp.exact_cdf_dp"],
    "lpp.dp.table_s": ["lpp.dp.table"],
    "lpp.dp.propagate_s": ["lpp.exact_cdf_dp", "lpp.dp.table"],
    "lpp.dp.table_cache_hit_ratio": ["lpp.dp.table", "lpp.dp.table_cache"],
    "lpp.dp.states": ["lpp.exact_cdf_dp"],
    "lpp.mc_cdf.calls": ["lpp.mc_cdf"],
    "lpp.mc_cdf.s": ["lpp.mc_cdf"],
    "lpp.mc.samples_per_s": ["lpp.mc_cdf"],
    "lpp.mc.draw_s": ["lpp.mc_cdf", "lpp.mc.inverse_cdf", "lpp.mc.kernel"],
    "lpp.mc.inverse_cdf_s": ["lpp.mc.inverse_cdf"],
    "lpp.mc.kernel_s": ["lpp.mc.kernel"],
    "detformulas.cdf_det.calls": ["detformulas.cdf_det"],
    "detformulas.cdf_det.s": ["detformulas.cdf_det"],
    "detformulas.entries.calls": ["detformulas.entries"],
    "detformulas.entries_s": ["detformulas.entries"],
    "detformulas.bareiss_determinant.calls": ["detformulas.bareiss_determinant"],
    "detformulas.bareiss_determinant.s": ["detformulas.bareiss_determinant"],
    "detformulas.bareiss.dim_cubed": ["detformulas.bareiss_determinant"],
    "detformulas.joint_cdf.s": ["detformulas.joint_cdf"],
    "detformulas.transition_det.calls": ["detformulas.transition_det"],
    "detformulas.transition_det.s": ["detformulas.transition_det"],
    "weights.neg_binomial.calls": ["weights.neg_binomial"],
    "meixner.meixner_cdf_bruteforce.s": ["meixner.meixner_cdf_bruteforce"],
    "meixner.partition_function.s": ["meixner.partition_function"],
    "meixner.box_terms": ["meixner.meixner_cdf_bruteforce"],
    "meixner.meixner_cdf_gram.s": ["meixner.meixner_cdf_gram"],
    "fredholm.cdf_fredholm.calls": ["fredholm.cdf_fredholm"],
    "fredholm.cdf_fredholm.s": ["fredholm.cdf_fredholm"],
    "fredholm.section.calls": ["fredholm.section"],
    "fredholm.section.s": ["fredholm.section"],
    "fredholm.section.max_size": ["fredholm.section"],
    "fredholm.section_det_s": ["fredholm.cdf_fredholm", "fredholm.section"],
    "fredholm.cdf_biorth.s": ["fredholm.cdf_biorth"],
    "fredholm.ab_values.s": ["fredholm.ab_values"],
    "fredholm.quadrature.evaluations": ["fredholm.quadrature"],
    "fredholm.quadrature.nodes": ["fredholm.quadrature"],
    "fredholm.kernel_eval.s": ["fredholm.kernel_eval"],
    "cli.main.calls": ["cli.main"],
    "cli.main.s": ["cli.main"],
    "cli.self_s": ["cli.main"],
    "cli.report_bytes": ["cli.main"],
}


class Tracer:
    """Spans and counters for one run; install around traced passes only."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.child: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._undo: list = []
        self._cache_fn = None
        self._cache_seen = (0, 0)
        self.cache_hits = 0
        self.cache_lookups = 0
        self.missing: set = set()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, hook):
        calls, total, child, stack, counters = (
            self.calls, self.total, self.child, self._stack, self.counters)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(counters, *args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                child[name] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _count(self, name, fn, hook):
        counters = self.counters

        def wrapper(*args, **kwargs):
            hook(counters, *args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _quadrature(self, name, fn, hook):
        counters = self.counters

        def wrapper(evaluate, *args, **kwargs):
            def counted(count):
                counters[f"{name}.evaluations"] += 1
                counters[f"{name}.nodes"] += count
                return evaluate(count)

            return fn(counted, *args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        for name, home, attr, others, kind in SPANS:
            modules = [(home, True)] + [(other, False) for other in others]
            for modname, is_home in modules:
                try:
                    module = importlib.import_module(f"{package.__name__}.{modname}")
                except ModuleNotFoundError:
                    module = None
                if not hasattr(module, attr):
                    if is_home:
                        self.missing.add(name)
                    continue
                original = getattr(module, attr)
                make = {"span": self._span, "count": self._count,
                        "quadrature": self._quadrature}[kind]
                setattr(module, attr, make(name, original, HOOKS.get(name)))
                self._undo.append((module, attr, original))
                if name == "lpp.dp.table":
                    self._watch_cache(original)

    def _watch_cache(self, table) -> None:
        if not hasattr(table, "cache_info"):
            self.missing.add("lpp.dp.table_cache")
            return
        self._cache_fn = table
        info = table.cache_info()
        self._cache_seen = (info.hits, info.misses)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        if self._cache_fn is not None:
            info = self._cache_fn.cache_info()
            hits, misses = info.hits, info.misses
            self.cache_hits += hits - self._cache_seen[0]
            self.cache_lookups += (hits + misses) - sum(self._cache_seen)
            self._cache_fn = None

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass; names whose source is missing are left out."""
        t, c, k, n = self.total, self.calls, self.child, self.counters
        per = 1.0 / passes
        self_s = {name: t[name] - k[name] for name in t}
        mc_s = t["lpp.mc_cdf"]
        values = {
            "lpp.exact_cdf_dp.calls": c["lpp.exact_cdf_dp"] * per,
            "lpp.exact_cdf_dp.s": t["lpp.exact_cdf_dp"] * per,
            "lpp.dp.table_s": t["lpp.dp.table"] * per,
            "lpp.dp.propagate_s": self_s.get("lpp.exact_cdf_dp", 0.0) * per,
            "lpp.dp.table_cache_hit_ratio": (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0),
            "lpp.dp.states": n["lpp.dp.states"] * per,
            "lpp.mc_cdf.calls": c["lpp.mc_cdf"] * per,
            "lpp.mc_cdf.s": mc_s * per,
            "lpp.mc.samples_per_s": n["lpp.mc.samples"] / mc_s if mc_s else 0.0,
            "lpp.mc.draw_s": self_s.get("lpp.mc_cdf", 0.0) * per,
            "lpp.mc.inverse_cdf_s": t["lpp.mc.inverse_cdf"] * per,
            "lpp.mc.kernel_s": t["lpp.mc.kernel"] * per,
            "detformulas.cdf_det.calls": c["detformulas.cdf_det"] * per,
            "detformulas.cdf_det.s": t["detformulas.cdf_det"] * per,
            "detformulas.entries.calls": c["detformulas.entries"] * per,
            "detformulas.entries_s": t["detformulas.entries"] * per,
            "detformulas.bareiss_determinant.calls": c["detformulas.bareiss_determinant"] * per,
            "detformulas.bareiss_determinant.s": t["detformulas.bareiss_determinant"] * per,
            "detformulas.bareiss.dim_cubed": n["detformulas.bareiss.dim_cubed"] * per,
            "detformulas.joint_cdf.s": t["detformulas.joint_cdf"] * per,
            "detformulas.transition_det.calls": c["detformulas.transition_det"] * per,
            "detformulas.transition_det.s": t["detformulas.transition_det"] * per,
            "weights.neg_binomial.calls": n["weights.neg_binomial.calls"] * per,
            "meixner.meixner_cdf_bruteforce.s": t["meixner.meixner_cdf_bruteforce"] * per,
            "meixner.partition_function.s": t["meixner.partition_function"] * per,
            "meixner.box_terms": n["meixner.box_terms"] * per,
            "meixner.meixner_cdf_gram.s": t["meixner.meixner_cdf_gram"] * per,
            "fredholm.cdf_fredholm.calls": c["fredholm.cdf_fredholm"] * per,
            "fredholm.cdf_fredholm.s": t["fredholm.cdf_fredholm"] * per,
            "fredholm.section.calls": c["fredholm.section"] * per,
            "fredholm.section.s": t["fredholm.section"] * per,
            "fredholm.section.max_size": n["fredholm.section.max_size"],
            "fredholm.section_det_s": self_s.get("fredholm.cdf_fredholm", 0.0) * per,
            "fredholm.cdf_biorth.s": t["fredholm.cdf_biorth"] * per,
            "fredholm.ab_values.s": t["fredholm.ab_values"] * per,
            "fredholm.quadrature.evaluations": n["fredholm.quadrature.evaluations"] * per,
            "fredholm.quadrature.nodes": n["fredholm.quadrature.nodes"] * per,
            "fredholm.kernel_eval.s": t["fredholm.kernel_eval"] * per,
            "cli.main.calls": c["cli.main"] * per,
            "cli.main.s": t["cli.main"] * per,
            "cli.self_s": self_s.get("cli.main", 0.0) * per,
            "cli.report_bytes": n["cli.report_bytes"] * per,
        }
        return {name: value for name, value in values.items()
                if not self.missing.intersection(METRIC_SOURCES[name])}
