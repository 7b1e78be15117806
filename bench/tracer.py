"""Layer spans taken from outside the program.

`Tracer.install` replaces the names that callers look up at call time
(module functions in every module that imports them, and class methods) with
wrappers that record a span: name, start, end and parent span.  Spans stay in
memory until the operation ends; `fold` then turns them into call counts,
total and self times (a span minus its child spans) and discards them.
Nothing inside `src/` is touched, and `uninstall` restores every name.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (span name, module, attribute or Class.method); a name missing from the
# program is skipped, and its metrics read 0
TARGETS = [
    ("matrix.rank_of", "matrix", "rank_of"),
    ("matrix.rank_of", "cutrank", "rank_of"),
    ("matrix.rank_of", "terms", "rank_of"),
    ("cutrank", "cutrank", "CutFunction.__call__"),
    ("layouts.width_exact", "layouts", "width_exact"),
    ("layouts.width_exact", "cli", "width_exact"),
    ("layouts.width_exact", "transform", "width_exact"),
    ("layouts.decide", "layouts", "decide_width_at_most"),
    ("layouts.decide", "cli", "decide_width_at_most"),
    ("layouts.layout_width", "layouts", "layout_width"),
    ("layouts.Layout.init", "layouts", "Layout.__init__"),
    ("graphs.canonical_form", "graphs", "ColoredGraph.canonical_form"),
    ("graphs.SigmaGraph.init", "graphs", "SigmaGraph.__init__"),
    ("transform.local_complement", "transform", "local_complement"),
    ("transform.local_complement", "cli", "local_complement"),
    ("transform.pivot_complement", "transform", "pivot_complement"),
    ("transform.pivot_complement", "cli", "pivot_complement"),
    ("transform.orbit", "transform", "equivalence_orbit_graphs"),
    ("transform.is_minor", "transform", "is_minor"),
    ("transform.sigma_symmetric_graphs", "transform", "sigma_symmetric_graphs"),
    ("transform.find_obstructions", "transform", "find_obstructions"),
    ("transform.find_obstructions", "cli", "find_obstructions"),
    ("terms.compile", "terms", "term_from_layout_rank"),
    ("terms.compile", "terms", "term_from_layout_birank"),
    ("cli.main", "cli", "main"),
    ("cli.parse_graph", "cli", "parse_graph"),
]
SMALL_N = 7      # canonical forms up to this n are timed as "small"


class Tracer:
    def __init__(self, m):
        self.m = m
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.cut_functions = []
        self.patches = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = spans[i]
                span[1], span[2] = t0, t1

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self):
        """Fold the spans of one operation into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += t1 - t0 - child[i]
        spans.clear()
        self.counts["cutrank.evals"] += sum(len(f.memo) for f in self.cut_functions)
        self.cut_functions.clear()

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        wrappers = {}
        for name, modname, attr in TARGETS:
            owner = getattr(self.m, modname)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls, None)
            if owner is None or attr not in owner.__dict__:
                continue
            fn = owner.__dict__[attr]
            key = (name, fn)
            if key not in wrappers:
                wrappers[key] = self._special(name, fn) or self.wrap(name, fn)
            self._patch(owner, attr, wrappers[key])
        self._install_counters()

    def _special(self, name, fn):
        """Wrappers that also record what the call returned or its size."""
        if name == "graphs.canonical_form":
            small, large = (self.wrap(name + ".small", fn),
                            self.wrap(name + ".large", fn))
            return lambda g: (small if g.n <= SMALL_N else large)(g)
        if name in ("transform.orbit", "transform.is_minor"):
            inner = self.wrap(name, fn)
            counts = self.counts

            def recorded(*args, **kwargs):
                out = inner(*args, **kwargs)
                counts["transform.closure_states"] += (
                    len(out) if name == "transform.orbit" else out.states)
                return out
            return recorded
        return None

    def _install_counters(self):
        cutrank = self.m.cutrank.CutFunction
        init = cutrank.__dict__["__init__"]
        registry = self.cut_functions

        def counted_init(f, *args, **kwargs):
            init(f, *args, **kwargs)
            registry.append(f)
        self._patch(cutrank, "__init__", counted_init)

        layouts = self.m.layouts
        if "enumerate_layouts" in layouts.__dict__:
            enum = layouts.enumerate_layouts
            counts = self.counts

            def counted_enum(*args, **kwargs):
                for L in enum(*args, **kwargs):
                    counts["layouts.layouts_enumerated"] += 1
                    yield L
            self._patch(layouts, "enumerate_layouts", counted_enum)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- metrics -------------------------------------------------------------------

    def metrics(self, passes: int, overhead_s: float) -> dict:
        """Every per-layer metric, per traced pass."""
        c, tot, st, cnt = self.calls, self.total, self.self_time, self.counts
        per = 1.0 / passes

        def ratio(a, b):
            return a / b if b else 0.0

        canon_calls = c["graphs.canonical_form.small"] + c["graphs.canonical_form.large"]
        closure_time = tot["transform.orbit"] + tot["transform.is_minor"]
        values = {
            "matrix.rank_of.calls": (c["matrix.rank_of"] * per, "count"),
            "matrix.rank_of.us_per_call": (
                1e6 * ratio(tot["matrix.rank_of"], c["matrix.rank_of"]), "us"),
            "matrix.rank_of.self_s": (st["matrix.rank_of"] * per, "s"),
            "cutrank.calls": (c["cutrank"] * per, "count"),
            "cutrank.evals": (cnt["cutrank.evals"] * per, "count"),
            "cutrank.hit_ratio": (
                1.0 - ratio(cnt["cutrank.evals"], c["cutrank"]) if c["cutrank"] else 0.0,
                "ratio"),
            "cutrank.self_s": (st["cutrank"] * per, "s"),
            "layouts.width_exact.self_s": (st["layouts.width_exact"] * per, "s"),
            "layouts.decide.self_s": (st["layouts.decide"] * per, "s"),
            "layouts.layouts_enumerated": (cnt["layouts.layouts_enumerated"] * per, "count"),
            "layouts.layout_width.calls": (c["layouts.layout_width"] * per, "count"),
            "layouts.layout_width.self_s": (st["layouts.layout_width"] * per, "s"),
            "layouts.Layout.init_s": (st["layouts.Layout.init"] * per, "s"),
            "graphs.canonical_form.calls": (canon_calls * per, "count"),
            "graphs.canonical_form.small_us": (
                1e6 * ratio(tot["graphs.canonical_form.small"],
                            c["graphs.canonical_form.small"]), "us"),
            "graphs.canonical_form.large_us": (
                1e6 * ratio(tot["graphs.canonical_form.large"],
                            c["graphs.canonical_form.large"]), "us"),
            "graphs.canonical_form.self_s": (
                (st["graphs.canonical_form.small"] + st["graphs.canonical_form.large"])
                * per, "s"),
            "graphs.SigmaGraph.init.calls": (c["graphs.SigmaGraph.init"] * per, "count"),
            "graphs.SigmaGraph.init.self_s": (st["graphs.SigmaGraph.init"] * per, "s"),
            "transform.local_complement.calls": (
                c["transform.local_complement"] * per, "count"),
            "transform.pivot_complement.calls": (
                c["transform.pivot_complement"] * per, "count"),
            "transform.complement.self_s": (
                (st["transform.local_complement"] + st["transform.pivot_complement"])
                * per, "s"),
            "transform.closure_states": (cnt["transform.closure_states"] * per, "count"),
            "transform.states_per_s": (
                ratio(cnt["transform.closure_states"], closure_time), "1/s"),
            "transform.sigma_symmetric_graphs.self_s": (
                st["transform.sigma_symmetric_graphs"] * per, "s"),
            "transform.find_obstructions.self_s": (
                st["transform.find_obstructions"] * per, "s"),
            "terms.compile.calls": (c["terms.compile"] * per, "count"),
            "terms.compile.self_s": (st["terms.compile"] * per, "s"),
            "cli.main.self_s": (st["cli.main"] * per, "s"),
            "cli.parse_graph.self_s": (st["cli.parse_graph"] * per, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
