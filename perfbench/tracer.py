"""Spans and counts at ordsearch's layer boundaries, recorded from outside.

The tracer wraps, by name, every public function of the six library modules
plus a few methods that are layers of their own (graph construction, the
adjacency index, trace formatting, ordinal parsing and formatting).  A name
that a later version no longer has is reported absent rather than failing.
Wrappers replace every module-level binding of the original, so calls made
through ``from .graph import deserialize`` are seen too.

Two modes are kept apart so that one does not distort the other:

* ``spans`` records (name, start, end, parent) for each call of the current
  request; at the end of the request the spans are folded into per-name
  call counts and self times (a span's duration minus its children's);
* ``memory`` runs tracemalloc only inside the functions in ``PEAK_NAMES`` and
  keeps the largest peak each reached, nested calls included.

Counts are taken only from arguments and public return values, never from
fields a later version may compute lazily (such as ``SearchTrace.stages``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter

MODULES = ("cli", "graph", "search", "predicates", "witness", "ordinal")

# Building the argument parser is part of the CLI layer's own work (argv
# parsing), so it stays inside cli.main's self time.
UNWRAPPED = frozenset({"cli.build_parser"})

METHODS = {
    "graph.OrderedGraph": [("graph", "OrderedGraph", "__post_init__")],
    "graph.adjacency": [("graph", "OrderedGraph", "adjacency")],
    "search.stage_lines": [("search", "SearchTrace", "stage_lines"), ("search", "BfsTrace", "stage_lines")],
    "ordinal.parse": [("ordinal", "Ordinal", "parse")],
    "ordinal.format": [("ordinal", "Ordinal", "__str__")],
}

PEAK_NAMES = (
    "graph.deserialize",
    "search.deterministic_search",
    "predicates.enumerate_traversals",
    "witness.verify_witness",
)

PREDICATE_NAMES = ("predicates.is_traversal", "predicates.is_breadth_first", "predicates.is_depth_first")


class Tracer:
    def __init__(self):
        self.mode: str | None = None
        self.names: list[str] = []
        # Current request.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.searched: dict[tuple[int, int], object] = {}
        # Totals over the requests traced so far.
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.peak_mb: dict[str, float] = {}
        self.frames: list[list[int]] = []

    # -- installation -----------------------------------------------------------

    def install(self, package) -> list[str]:
        """Wrap every public function of the package's layer modules and the
        METHODS; returns the METHODS names that were not found."""
        modules = {name: getattr(package, name, None) for name in MODULES}
        originals = {}
        for short, mod in modules.items():
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    originals[id(obj)] = (obj, self._wrap(name, obj))
        for loaded in [m for k, m in list(sys.modules.items()) if k.startswith(package.__name__)]:
            for attr, obj in list(vars(loaded).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(loaded, attr, originals[id(obj)][1])
        absent = []
        for name, places in METHODS.items():
            found = False
            for short, cls_name, attr in places:
                cls = getattr(modules.get(short), cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                elif isinstance(raw, functools.cached_property):
                    prop = functools.cached_property(self._wrap(name, raw.func))
                    prop.__set_name__(cls, attr)
                    setattr(cls, attr, prop)
                elif inspect.isfunction(raw):
                    setattr(cls, attr, self._wrap(name, raw))
                else:
                    continue
                found = True
            if not found:
                absent.append(name)
        return absent

    def _wrap(self, name: str, fn):
        tracer = self
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        measure_peak = name in PEAK_NAMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mode = tracer.mode
            if mode == "spans":
                if observe is not None:
                    observe(tracer, args, kwargs, None, before=True)
                spans = tracer.spans
                stack = tracer.stack
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
                if observe is not None:
                    observe(tracer, args, kwargs, result, before=False)
                return result
            if mode == "memory" and measure_peak:
                tracer._memory_enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._memory_exit(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- spans ------------------------------------------------------------------

    def finish_request(self) -> None:
        """Fold the current request's spans into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child[i]
            if parent >= 0 and name in PREDICATE_NAMES and spans[parent][0] == "predicates.enumerate_traversals":
                self._count("predicates.enumerate_candidates", 1)
        self._count("search.distinct_searches", len(self.searched))
        self.spans = []
        self.stack = []
        self.searched = {}

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- memory -----------------------------------------------------------------

    def _memory_enter(self) -> None:
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], tracemalloc.get_traced_memory()[1])
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self.frames.append([current, current])

    def _memory_exit(self, name: str) -> None:
        base, peak = self.frames.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), (peak - base) / 2**20)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "peak_mb": dict(self.peak_mb),
            "names": sorted(set(self.names)),
        }


# -- counts at the boundaries ----------------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_graph(tracer, args, kwargs, result, before):
    # Edges handed to the normalizing constructor, before de-duplication.
    if before:
        tracer._count("graph.edges_normalized", len(getattr(args[0], "edges", ())))


def _observe_search(tracer, args, kwargs, result, before):
    if before:
        return
    g = _arg(args, kwargs, 0, "g")
    # Keeping the graph alive for the request keeps its id unique.
    tracer.searched[(id(g), _arg(args, kwargs, 1, "start", 0))] = g


def _observe_enumerate(tracer, args, kwargs, result, before):
    if not before:
        try:
            tracer._count("predicates.orders_enumerated", len(result))
        except TypeError:
            pass


def _observe_witness(tracer, args, kwargs, result, before):
    if not before:
        graph = getattr(result, "graph", None)
        tracer._count("witness.vertices_built", getattr(graph, "vertex_count", 0))


_OBSERVERS = {
    "graph.OrderedGraph": _observe_graph,
    "search.deterministic_search": _observe_search,
    "predicates.enumerate_traversals": _observe_enumerate,
    "witness.build_zeta_witness": _observe_witness,
}
