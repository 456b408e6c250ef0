"""Bench-side tracing of the library's layers.

Every public function of a layer module is wrapped at each name binding
that refers to it, in every cechlift module and in the benchmark's own
calling modules, so a call made from inside the library is seen exactly
like one made from outside.  A few methods
that carry a layer's work are wrapped on their class.  Each wrapped call
is a span with a name, start, end and parent; a span's self time is its
duration minus the time covered by its child spans.  Spans are kept in
memory and written out when the run ends.

Two kinds of wrapper are lighter, because they run hundreds of thousands
of times a second:
- AbelianGroup.check takes part in self-time accounting but stores no span record;
- FiniteGroup.mul and Cochain construction are only counted.

Cache counters come from the library's own lru_cache objects.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import time
from array import array
from collections import Counter

LAYERS = ("nerve", "coefgroup", "linalg", "cochain", "fingroup", "obstruct", "whitney", "cli")

# (module, attribute) of the library's lru caches, reported as cache.<name>.
CACHES = {
    "coboundary_matrix": ("cochain", "coboundary_matrix"),
    "coboundary_snf": ("cochain", "_coboundary_snf"),
    "cohomology": ("cochain", "cohomology"),
    "fused_default": ("whitney", "_fused_default"),
}


def _cells(args) -> int:
    """rows x cols of a matrix-like first argument, else 0."""
    if not args:
        return 0
    a = args[0]
    shape = getattr(a, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    if hasattr(a, "rows") and hasattr(a, "cols"):
        return int(a.rows) * int(a.cols)
    if isinstance(a, (list, tuple)) and a and isinstance(a[0], (list, tuple)):
        return len(a) * len(a[0])
    return 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, cells]
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._ids = itertools.count()
        self.span_ids = array("q")
        self.span_parents = array("q")
        self.span_names = array("i")
        self.span_starts = array("d")
        self.span_ends = array("d")
        self.top_level_s = 0.0
        self._undo: list[tuple] = []
        self._cache_objs: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self.cache_counts: Counter = Counter()
        self.distinct: dict[str, set] = {}

    # ------------------------------------------------------------ wrappers --

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def span(self, name, fn, record=True, cells=False, key=None, on_result=None):
        """Wrap fn so each call is a span; key(args) feeds a distinct-input
        count and on_result(result) a layer counter."""
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        nid = self._nid(name)
        stack, ids, clock, tracer = self._stack, self._ids, time.perf_counter, self
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_level_s += dur
                if record:
                    tracer.span_ids.append(frame[0])
                    tracer.span_parents.append(parent)
                    tracer.span_names.append(nid)
                    tracer.span_starts.append(t0)
                    tracer.span_ends.append(t1)
            if cells:
                stats[2] += _cells(args)
            if seen is not None:
                seen.add(key(args))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- install --

    def install(self, callers=()):
        """Wrap every public function of every layer at all of its bindings,
        in the library and in the given calling modules."""
        mods = {layer: importlib.import_module(f"cechlift.{layer}") for layer in LAYERS}
        everywhere = [importlib.import_module("cechlift"), *mods.values(), *callers]
        # A cache, function or method named here that is gone is an error,
        # not a layer that did no work.
        for cname, (mname, attr) in CACHES.items():
            obj = getattr(mods[mname], attr)
            if not hasattr(obj, "cache_info"):
                raise TypeError(f"cechlift.{mname}.{attr} is no longer an lru_cache")
            self._cache_objs[cname] = obj
        self.bank_caches(reset=True)

        special = {
            "fingroup.direct_product": dict(key=_groups_key),
            "nerve.build_complex": dict(on_result=self._count_simplices),
        }
        for layer, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span(name, obj, cells=(layer == "linalg"), **special.get(name, {}))
                for m in everywhere:
                    for k, v in list(vars(m).items()):
                        if v is obj:
                            self._patch(m, k, wrapped)

        def method(mod, cls, attr, make):
            klass = getattr(mods[mod], cls)
            self._patch(klass, attr, make(vars(klass)[attr]))

        method("linalg", "GfpSpan", "insert", lambda f: self.span("linalg.GfpSpan.insert", f))
        method("coefgroup", "AbelianGroup", "check",
               lambda f: self.span("coefgroup.AbelianGroup.check", f, record=False))
        method("fingroup", "FiniteGroup", "mul", lambda f: self.counter("fingroup.FiniteGroup.mul.calls", f))
        method("cochain", "Cochain", "__post_init__", lambda f: self.counter("cochain.Cochain.created", f))
        method("obstruct", "Lift", "__post_init__", lambda f: self.span("obstruct.Lift", f))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        self.bank_caches()
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_simplices(self, complex_):
        self.counts["nerve.simplices_built"] += sum(len(v) for v in complex_.simplices.values())

    # -------------------------------------------------------------- caches --

    def bank_caches(self, reset=False):
        """Add cache hits and misses since the last bank; call before any cache_clear."""
        for name, obj in self._cache_objs.items():
            info = obj.cache_info()
            hits, misses = self._cache_base.get(name, (info.hits, info.misses))
            if not reset:
                self.cache_counts[f"cache.{name}.hits"] += info.hits - hits
                self.cache_counts[f"cache.{name}.misses"] += info.misses - misses
            self._cache_base[name] = (info.hits, info.misses)

    def after_clear(self):
        for name in self._cache_base:
            self._cache_base[name] = (0, 0)

    # ------------------------------------------------------------- metrics --

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer aggregates under their trace names."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name, (calls, self_s, cells) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if cells:
                out[f"{name}.cells"] = cells
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
        for name, seen in self.distinct.items():
            out[f"{name}.distinct_inputs"] = len(seen)
        out.update(self.counts)
        out.update(self.cache_counts)
        return out

    def top_self(self, n=10) -> list[tuple[str, float]]:
        rows = [(name, st[1]) for name, st in self.stats.items()]
        return sorted(rows, key=lambda r: -r[1])[:n]

    def dump(self, path, extra: dict):
        """Write aggregates and every stored span (columns) as gzipped JSON."""
        doc = dict(extra)
        doc["spans"] = {
            "names": self.names,
            "id": self.span_ids.tolist(),
            "parent": self.span_parents.tolist(),
            "name": self.span_names.tolist(),
            "start": self.span_starts.tolist(),
            "end": self.span_ends.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _groups_key(args):
    groups = args[0] if args else ()
    return tuple((g.order, g.table.tobytes()) for g in groups)
