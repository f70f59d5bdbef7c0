"""In-memory span tracing for the traced benchmark run.

Spans are recorded only by wrappers that the benchmark binds into the
namespaces of the domcore modules that import a function from another
module (for example ``domcore.enumeration.cut_vertices``), plus the
calls the benchmark itself makes.  Nothing under ``src/`` changes, and
the bindings are undone when the traced pass ends.

A span is (id, name, start_ns, end_ns, parent id).  Names read
``<layer>.<function>@<caller>``: the layer is the module that defines
the function, the caller is the module whose namespace held the
binding (``bench`` for the benchmark's own calls).  All spans live in
one flat ``array('q')``; ``array.extend`` runs in C under the GIL, so a
row appended from the pool's task-feeding thread is never torn.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
from array import array
from contextlib import contextmanager
from functools import wraps
from itertools import count
from time import perf_counter_ns

_FIELDS = 5  # id, name, start_ns, end_ns, parent

# caller module -> {imported name: defining layer}.  Only functions that
# cross a module boundary are bound; calls inside one module stay
# invisible (for example is_cograph -> contains_induced).
BINDINGS: dict[str, dict[str, str]] = {
    "enumeration": {
        "add_vertex": "graph",
        "cut_vertices": "graph",
        "canonical_form": "canonical",
        "rooted_canonical_bits": "canonical",
    },
    "classify": {
        "delete_vertex": "graph",
        "add_pendant": "graph",
        "exists_dominating_within": "solve",
        "gamma_value": "solve",
        "core_and_corona": "solve",
        "all_minimum_dominating_sets": "solve",
    },
    "search": {
        "enumerate_connected": "enumeration",
        "write_graph6": "graph6",
        "parse_graph6": "graph6",
        "cut_vertices": "graph",
        "gamma_value": "solve",
        "core_and_corona": "solve",
        "classification_masks": "classify",
        "contains_induced": "recognize",
        "is_bipartite": "recognize",
    },
    "verify": {
        "enumerate_connected": "enumeration",
        "count_connected_graphs": "enumeration",
        "labeled_connected_bitmap": "enumeration",
        "relabeling_closure_bitmap": "enumeration",
        "write_graph6": "graph6",
        "parse_graph6": "graph6",
        "canonical_form": "canonical",
        "add_vertex": "graph",
        "cut_vertices": "graph",
        "classify_all": "classify",
        "classify_by_enumeration": "classify",
        "gamma_exact": "solve",
        "gamma_bruteforce": "solve",
        "gamma_tree": "solve",
        "all_minimum_dominating_sets": "solve",
        "independence_number": "solve",
        "independent_domination_number": "solve",
        "contains_induced": "recognize",
        "is_bipartite": "recognize",
        "is_chordal": "recognize",
        "is_claw_free": "recognize",
        "is_cograph": "recognize",
        "is_tree": "recognize",
        "twin_clique_partition": "recognize",
    },
}

# generator functions: each next() is one span named <layer>.next
GENERATORS = frozenset({"enumerate_connected"})


class Tracer:
    """Records spans of the process that created it; forked children pass through."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows = array("q")
        self.counters: dict[str, int] = {}
        self._ids = count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack: list[int]) -> int:
        # a span opened on a helper thread (the pool's task feeder) with
        # nothing open there belongs to whatever the main thread has open
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    @contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.rows.extend((sid, nid, start, end, parent))

    def wrap(self, name: str, fn):
        """Callable that records one span per call of fn."""
        nid = self.name_id(name)
        pid = self.pid
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.rows.extend((sid, nid, start, end, parent))

        return traced

    def wrap_generator(self, name: str, yields_key: str, fn):
        """Generator function whose every next() is one span."""
        step = self.wrap(name, next)
        pid = self.pid
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                if os.getpid() == pid:
                    tracer.count(yields_key)
                yield item

        return traced

    def bind(self, modules: dict[str, object]) -> None:
        """Bind wrappers into the caller modules' namespaces (see BINDINGS)."""
        for caller, table in BINDINGS.items():
            module = modules[caller]
            for attr, layer in table.items():
                original = getattr(module, attr)
                if attr in GENERATORS:
                    wrapper = self.wrap_generator(
                        f"{layer}.next@{caller}", f"{layer}.yields@{caller}", original
                    )
                else:
                    wrapper = self.wrap(f"{layer}.{attr}@{caller}", original)
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def unbind(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        """Write every span as gzip-compressed JSON, a slice of rows at a time."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = self.rows
        step = _FIELDS * 20000
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"fields":["id","name","start_ns","end_ns","parent"],"names":')
            fh.write(json.dumps(self.names))
            fh.write(',"counters":' + json.dumps(self.counters) + ',"spans":[')
            for lo in range(0, len(rows), step):
                part = rows[lo : lo + step]
                fh.write(("," if lo else "") + ",".join(
                    "[%d,%d,%d,%d,%d]" % tuple(part[i : i + _FIELDS])
                    for i in range(0, len(part), _FIELDS)
                ))
            fh.write("]}")


class SpanStats:
    """Per-name call counts, busy seconds and self seconds."""

    def __init__(self, tracer: Tracer) -> None:
        rows = tracer.rows
        child_ns: dict[int, int] = {}
        for i in range(0, len(rows), _FIELDS):
            parent = rows[i + 4]
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + rows[i + 3] - rows[i + 2]
        n = len(tracer.names)
        self.calls = [0] * n
        self.busy_ns = [0] * n
        self.self_ns = [0] * n
        for i in range(0, len(rows), _FIELDS):
            sid, nid, start, end = rows[i], rows[i + 1], rows[i + 2], rows[i + 3]
            self.calls[nid] += 1
            self.busy_ns[nid] += end - start
            self.self_ns[nid] += end - start - child_ns.get(sid, 0)
        self.names = tracer.names

    def _select(self, pattern: str):
        """Name ids matching '<layer>.<fn>' (any caller) or '<layer>.<fn>@<caller>'."""
        for nid, name in enumerate(self.names):
            if name == pattern or name.split("@")[0] == pattern:
                yield nid

    def calls_of(self, pattern: str) -> int:
        return sum(self.calls[i] for i in self._select(pattern))

    def busy_s(self, pattern: str) -> float:
        return sum(self.busy_ns[i] for i in self._select(pattern)) / 1e9

    def self_s(self, pattern: str) -> float:
        return sum(self.self_ns[i] for i in self._select(pattern)) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(
            self.self_ns[i] for i, name in enumerate(self.names) if name.split(".")[0] == layer
        ) / 1e9
