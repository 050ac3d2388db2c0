"""Span tracing of the ``repro`` layers, applied from outside the package.

Nothing under ``src/`` knows about this module.  :class:`Patch` walks
the traced packages, wraps every public function and every public method
of every class they define, and rebinds each wrapped name in *every*
loaded module that holds the original object - so a name imported
directly (``from repro.core.filtering import filter_guaranteed_pairs``
in ``repro.core.marioh``) is patched where it is looked up.  It restores
every binding on exit.

Two recording modes share the patching:

- :class:`Tracer` records one span per call - ``(id, parent, name,
  start_ns, end_ns, thread)`` - in memory, with a per-thread parent
  stack; self time is a span minus its direct children.
- :class:`CallCounter` only accumulates a call count and the summed
  inner duration per name.  It serves the functions in :data:`HOT`,
  which are called so often (10^5-10^6 times per reconstruction) that a
  span each would distort the time of every caller.  Those functions are
  left unwrapped in the span pass and measured in a separate pass.

Generator functions are never wrapped: a span would end when the
generator is created, and their iteration time is the caller's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: the packages whose public surface is wrapped.
PACKAGES = (
    "repro.core",
    "repro.hypergraph",
    "repro.ml",
    "repro.serve",
    "repro.resilience",
    "repro.store",
    "repro.datasets",
    "repro.experiments",
)

#: private or dunder callables wrapped in addition to the public surface,
#: because a per-layer metric is defined on them.
EXTRA = (
    ("repro.core.pool", "CliqueCandidatePool.__init__"),
    ("repro.serve.daemon", "ReconstructionServer._handle"),
)

#: functions called 10^4-10^6 times per run.  The span pass leaves them
#: unwrapped; a separate pass measures them with :class:`CallCounter`.
HOT = frozenset(
    {
        "hypergraph.graph.WeightedGraph.add_edge",
        "hypergraph.graph.WeightedGraph.add_node",
        "hypergraph.graph.WeightedGraph.clique_touch_count",
        "hypergraph.graph.WeightedGraph.clique_touch_stamp",
        "hypergraph.graph.WeightedGraph.decrement_edge",
        "hypergraph.graph.WeightedGraph.degree",
        "hypergraph.graph.WeightedGraph.has_edge",
        "hypergraph.graph.WeightedGraph.neighbor_weights",
        "hypergraph.graph.WeightedGraph.neighbors",
        "hypergraph.graph.WeightedGraph.touch_version",
        "hypergraph.graph.WeightedGraph.weight",
        "hypergraph.graph.WeightedGraph.weighted_degree",
        "hypergraph.graph.WeightedGraph.common_neighbors",
        "hypergraph.graph.WeightedGraph.set_weight",
        "hypergraph.graph.WeightedGraph.remove_edge",
        "hypergraph.hypergraph.Hypergraph.add",
        "hypergraph.hypergraph.Hypergraph.add_node",
        "hypergraph.hypergraph.Hypergraph.multiplicity",
        "hypergraph.hypergraph.Hypergraph.degree",
        "hypergraph.hypergraph.Hypergraph.unique_degree",
        "hypergraph.hypergraph.as_edge",
        "hypergraph.cliques.is_clique",
        "hypergraph.cliques.is_maximal_clique",
        "core.filtering.mhh",
        "core.filtering.residual_multiplicity",
        "core.pool.CliqueCandidatePool.sorted_members",
        "serve.engine.normalize_edit",
        "serve.engine.apply_edit",
        "serve.protocol.encode",
        "serve.protocol.decode_request",
        "serve.protocol.ok_response",
    }
)

#: a wrapped function called more often than this in one span pass is
#: listed in the run's diagnostics as a candidate for :data:`HOT`; at
#: about 1 us per wrapped call, 50k calls cost ~2% of a ladder pass.
HOT_WARN_CALLS = 50_000


def _short(module_name: str) -> str:
    return module_name[len("repro."):] if module_name.startswith("repro.") else module_name


def _modules() -> List[object]:
    found = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        found.append(package)
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            found.append(importlib.import_module(info.name))
    return found


def targets() -> List[Tuple[str, object, str, object]]:
    """``(span name, owner, attribute, original)`` for every wrap target.

    ``owner`` is the defining module (functions) or class (methods);
    the raw class-``__dict__`` value is returned for methods so static
    and class methods keep their descriptor type.
    """
    found: Dict[str, Tuple[str, object, str, object]] = {}
    for module in _modules():
        prefix = _short(module.__name__)
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found[f"{prefix}.{name}"] = (f"{prefix}.{name}", module, name, value)
            elif inspect.isclass(value):
                for attr, raw in vars(value).items():
                    if attr.startswith("_"):
                        continue
                    span = f"{prefix}.{name}.{attr}"
                    if _callable_member(raw):
                        found[span] = (span, value, attr, raw)
    for module_name, dotted in EXTRA:
        class_name, attr = dotted.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        span = f"{_short(module_name)}.{dotted}"
        found[span] = (span, owner, attr, vars(owner)[attr])
    return sorted(found.values(), key=lambda item: item[0])


def _callable_member(raw: object) -> bool:
    if isinstance(raw, (staticmethod, classmethod)):
        raw = raw.__func__
    return inspect.isfunction(raw)


class Tracer:
    """In-memory span recorder (thread-aware)."""

    def __init__(self, observers: Optional[Dict[str, Callable]] = None) -> None:
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        #: per-name ``observer(args, result) -> (counter, amount)`` hooks
        #: that derive counts from a call's arguments or return value.
        self.observers = observers or {}
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, thread_id = time.perf_counter_ns, threading.get_ident
        observer, counts = self.observers.get(name), self.counts

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, thread_id()))
            if observer is not None:
                counter, amount = observer(args, result)
                counts[counter] += amount
            return result

        return traced

    # -- derived views ---------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Recursive calls of one name are counted once in ``total_s``
        (only spans with no same-name ancestor contribute).
        """
        by_id = {span[0]: span for span in self.spans}
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[1]:
                child_ns[span[1]] += span[4] - span[3]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, parent, name, start, end, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns[span_id]) / 1e9
            if not _has_ancestor(by_id, parent, name):
                entry["total_s"] += (end - start) / 1e9
        return dict(out)

    def children_of(self, name: str) -> Tuple[float, float]:
        """(inclusive seconds of ``name``, seconds covered by its direct
        children) - the coverage of a span by named sub-layers."""
        ids = {span[0]: span for span in self.spans if span[2] == name}
        total = sum(span[4] - span[3] for span in ids.values())
        covered = sum(
            span[4] - span[3] for span in self.spans if span[1] in ids
        )
        return total / 1e9, covered / 1e9

    def under(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans that run inside ``ancestor``."""
        by_id = {span[0]: span for span in self.spans}
        return sum(
            (span[4] - span[3]) / 1e9
            for span in self.spans
            if span[2] == name and _has_ancestor(by_id, span[1], ancestor)
        )

    def durations(self, name: str) -> List[float]:
        """Seconds of each ``name`` span, in start order."""
        return [
            (span[4] - span[3]) / 1e9
            for span in sorted(self.spans, key=lambda span: span[3])
            if span[2] == name
        ]

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): one complete event per span, microsecond times."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span[3] for span in self.spans)
        threads: Dict[int, int] = {}
        events = []
        for span_id, parent, name, start, end, thread in sorted(
            self.spans, key=lambda span: span[3]
        ):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": threads.setdefault(thread, len(threads) + 1),
                    "args": {"id": span_id, "parent": parent},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


def _has_ancestor(by_id, parent: int, name: str) -> bool:
    while parent:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[2] == name:
            return True
        parent = span[1]
    return False


class CallCounter:
    """Call count and summed inner seconds per name (no spans)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.ns: Dict[str, int] = defaultdict(int)

    def wrap(self, name: str, function: Callable) -> Callable:
        calls, total, clock = self.calls, self.ns, time.perf_counter_ns

        @functools.wraps(function)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                total[name] += clock() - start
                calls[name] += 1

        return counted

    def seconds(self, name: str) -> float:
        return self.ns.get(name, 0) / 1e9


class Patch:
    """Context manager: wrapped bindings in, originals back out."""

    def __init__(self, recorder, select: Callable[[str], bool]) -> None:
        self._recorder = recorder
        self._select = select
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        replacements: Dict[int, object] = {}
        for name, owner, attr, raw in targets():
            if not self._select(name):
                continue
            function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if inspect.isgeneratorfunction(function):
                continue
            wrapped = self._recorder.wrap(name, function)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._set(owner, attr, wrapped)
            replacements[id(raw)] = wrapped
        # Rebind names imported directly into other modules.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not (module_name.startswith("repro") or module_name in _BENCH_MODULES):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._set(module, attr, wrapped)
        return self

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


#: benchmark modules that import ``repro`` names directly and so get
#: rebound too.
_BENCH_MODULES = {"workloads"}


def spans(tracer: Tracer) -> Patch:
    """Span every wrap target except :data:`HOT`."""
    return Patch(tracer, lambda name: name not in HOT)


def hot_calls(counter: CallCounter) -> Patch:
    """Count-and-time only the :data:`HOT` functions."""
    return Patch(counter, lambda name: name in HOT)


def warn_hot(tracer: Tracer, limit: int = HOT_WARN_CALLS) -> List[str]:
    """Names spanned more than ``limit`` times (candidates for HOT)."""
    counts: Dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        counts[span[2]] += 1
    return sorted(name for name, calls in counts.items() if calls > limit)
