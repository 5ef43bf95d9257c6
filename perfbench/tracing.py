"""Span and counter tracing of coveralg's layers, installed from outside.

The tracer wraps public functions of the program's modules by replacing
every reference to them in the loaded `coveralg` modules and classes, so
calls through `from .x import f` bindings are seen too. Each wrapped call
records a span (id, name, start, end, parent, operation, leaf seconds) in
memory; counters are updated from the call's arguments and result. The
hottest leaves (`det`, `divides`) are too frequent for spans: their calls
are counted, `det` is also timed, and that time is charged to the
enclosing span so self times stay exact. A target that no longer exists
is reported as absent instead of failing the run.

Self time of a span is its duration minus the durations of its child
spans and the leaf time charged to it.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, mode). mode: span | leaf (timed, no span) | count.
TARGETS = [
    ("cli", "main", "span"),
    ("algebra", "generators", "span"),
    ("algebra", "compare_powers", "span"),
    ("cone", "hilbert_basis", "span"),
    ("cone", "extreme_rays", "span"),
    ("cone", "triangulate", "span"),
    ("cone", "parallelepiped_points", "span"),
    ("intlinalg", "cross_normal", "span"),
    ("intlinalg", "hnf_columns", "span"),
    ("intlinalg", "det", "leaf"),
    ("complexes", "squarefree_symbolic_power", "span"),
    ("complexes", "cover_complex", "span"),
    ("complexes", "cover_ideal", "span"),
    ("complexes", "prime_power_ideal", "span"),
    ("monomial", "MonomialIdeal.intersect", "span"),
    ("monomial", "MonomialIdeal.multiply", "span"),
    ("monomial", "divides", "count"),
]

# Per-layer metric -> (span name whose self time it sums) for time metrics.
SELF_TIME = {
    "cone.extreme_rays_s": "cone.extreme_rays",
    "cone.triangulate_s": "cone.triangulate",
    "cone.parallelepiped_s": "cone.parallelepiped_points",
    "cone.reduce_s": "cone.hilbert_basis",
    "intlinalg.hnf_s": "intlinalg.hnf_columns",
    "monomial.intersect_s": "monomial.MonomialIdeal.intersect",
    "monomial.multiply_s": "monomial.MonomialIdeal.multiply",
    "complexes.cover_complex_s": "complexes.cover_complex",
    "complexes.prime_power_s": "complexes.prime_power_ideal",
    "algebra.compare_powers_s": "algebra.compare_powers",
    "cli.self_s": "cli.main",
}
TIMES = list(SELF_TIME) + ["intlinalg.det_s"]

COUNTS = [
    "cone.rays",
    "cone.simplices",
    "cone.sum_of_indices",
    "cone.candidates",
    "cone.reduce_pairs",
    "cone.basis_points",
    "intlinalg.cross_normal_calls",
    "intlinalg.det_calls",
    "monomial.intersect_joins",
    "monomial.multiply_sums",
    "monomial.divides_calls",
    "monomial.kept",
    "complexes.minimal_primes",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.det_s = 0.0
        self.op = (0, 0)  # (pass, operation index), shared by an operation's spans
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._basis_ctx: list[dict] = []
        self._taken = 0

    # --- bookkeeping hooks, run after the wrapped call returns ---------------

    def _after(self, name: str, args, result) -> None:
        c = self.counts
        ctx = self._basis_ctx[-1] if self._basis_ctx else None
        if name == "cone.extreme_rays":
            c["cone.rays"] += len(result)
            if ctx is not None:
                ctx["rays"].update(result)
        elif name == "cone.triangulate":
            c["cone.simplices"] += len(result)
            c["cone.sum_of_indices"] += sum(sc.index for sc in result)
        elif name == "cone.parallelepiped_points":
            if ctx is not None:
                ctx["points"].update(p for p in result if any(p))
        elif name == "intlinalg.cross_normal":
            c["intlinalg.cross_normal_calls"] += 1
        elif name == "monomial.MonomialIdeal.intersect":
            c["monomial.intersect_joins"] += len(args[0].gens) * len(args[1].gens)
            c["monomial.kept"] += len(result.gens)
        elif name == "monomial.MonomialIdeal.multiply":
            c["monomial.multiply_sums"] += len(args[0].gens) * len(args[1].gens)
            c["monomial.kept"] += len(result.gens)
        elif name == "complexes.cover_complex":
            c["complexes.minimal_primes"] += len(result.facets)

    def _basis_done(self, ctx: dict, result) -> None:
        candidates = len(ctx["rays"] | ctx["points"])
        self.counts["cone.candidates"] += candidates
        self.counts["cone.reduce_pairs"] += candidates * (candidates - 1)
        self.counts["cone.basis_points"] += len(result.points)

    # --- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, tracer = self.spans, self.stack, self
        is_basis = name == "cone.hilbert_basis"

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            rec = [len(spans), name, 0.0, 0.0, parent, tracer.op, 0.0]
            spans.append(rec)
            stack.append(rec)
            if is_basis:
                ctx = {"rays": set(), "points": set()}
                tracer._basis_ctx.append(ctx)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                if is_basis:
                    tracer._basis_ctx.pop()
            if is_basis:
                tracer._basis_done(ctx, result)
            tracer._after(name, args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):  # only det is a timed leaf
        stack, tracer, counts = self.stack, self, self.counts
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            t = perf_counter()
            result = fn(*args, **kwargs)
            d = perf_counter() - t
            counts[key] += 1
            tracer.det_s += d
            if stack:
                stack[-1][6] += d
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- install / remove --------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "coveralg" or k.startswith("coveralg.")]
        holders = []
        for m in modules:
            holders.append(m)
            holders.extend(v for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith("coveralg"))
        for modname, path, mode in TARGETS:
            name = f"{modname}.{path}"
            try:
                obj = importlib.import_module(f"coveralg.{modname}")
            except ImportError:
                obj = None
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                self.absent.append(name)
                continue
            make = {"span": self._span, "leaf": self._leaf, "count": self._count}[mode]
            wrapped = make(name, obj)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is obj:
                        self._patches.append((holder, attr, value))
                        setattr(holder, attr, wrapped)

    def remove(self) -> None:
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def take_pass(self) -> dict:
        """Metrics of the spans and counters recorded since the last call."""
        spans = self.spans[self._taken:]
        child = defaultdict(float)
        for rec in spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        self_time = defaultdict(float)
        for rec in spans:
            self_time[rec[1]] += rec[3] - rec[2] - child[rec[0]] - rec[6]
        out = {metric: self_time.get(span, 0.0) for metric, span in SELF_TIME.items()}
        out["intlinalg.det_s"] = self.det_s
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        self._taken = len(self.spans)
        self.counts.clear()
        self.det_s = 0.0
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, absent=self.absent, fields=[
                "id", "name", "start", "end", "parent", "pass_op", "leaf_s"])) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
