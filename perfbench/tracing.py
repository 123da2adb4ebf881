"""Outside-in layer tracing: timing shims the benchmark installs itself.

No file under ``src/`` records these spans.  :class:`Tracer` replaces
the public entry points of each layer (class methods and module-level
functions, looked up by import path) with wrappers that append one span
per call to an in-memory list, and puts every original back on
:meth:`Tracer.uninstall`.  Layers are named after the modules they
time: ``pipeline.windower``, ``sorting``, ``histograms``,
``estimators``, ``service`` and ``query``.

A span is ``(span_id, parent_id, layer, op, label, start, end, count)``.
Calls here are synchronous or awaited one at a time on one event loop,
so spans nest strictly and a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

#: The span fields, in tuple order (also the header of the span dump).
SPAN_FIELDS = ("span_id", "parent_id", "layer", "op", "label", "start",
               "end", "count")


@dataclass
class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _next_id: int = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self) -> tuple[int, int | None]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, span_id, parent, layer, op, label, start, count):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, layer, op, label, start, end,
                           count))

    def _wrap(self, fn, layer: str, op: str, label=None, count=None):
        """``fn`` recording one span per call.

        ``label(args)`` names the instance (e.g. the estimator kind).
        ``count(args, None)`` runs before the call and its value is
        passed back as ``count(args, before)`` after it, which returns
        the units of work the call did (1 per call without a ``count``).
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id, parent = self._open()
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(span_id, parent, layer, op,
                                label(args) if label else "", start, 1)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            before = count(args, None) if count else None
            try:
                return fn(*args, **kwargs)
            finally:
                work = count(args, before) if count else 1
                self._close(span_id, parent, layer, op,
                            label(args) if label else "", start, work)
        return traced

    # ------------------------------------------------------------------
    # installing shims
    # ------------------------------------------------------------------
    def patch_method(self, cls, name: str, layer: str, op: str, **how):
        """Wrap ``cls.name`` on the class of ``cls``'s MRO defining it.

        A method inherited by several traced classes is wrapped once.
        """
        owner = next((c for c in cls.__mro__ if name in vars(c)), None)
        if owner is None or owner is object or any(
                o is owner and n == name for o, n, _ in self._patched):
            return
        original = vars(owner)[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, self._wrap(original, layer, op, **how))

    def patch_function(self, fn, layer: str, op: str) -> None:
        """Wrap module-level ``fn`` in every loaded module that binds it.

        ``from x import f`` copies the binding, so the function is
        replaced wherever a ``repro`` module holds it.
        """
        wrapped = self._wrap(fn, layer, op)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back (reverse order of patching)."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def self_times(self) -> list[tuple]:
        """``(layer, op, label, self_s, count, parent_id)`` per span."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] = (child_time.get(span[1], 0.0)
                                       + span[6] - span[5])
        return [(s[2], s[3], s[4], s[6] - s[5] - child_time.get(s[0], 0.0),
                 s[7], s[1]) for s in self.spans]

    def layer_totals(self) -> dict[tuple[str, str], dict]:
        """Calls, self seconds and work count per ``(layer, op)``."""
        totals: dict[tuple[str, str], dict] = {}
        for layer, op, _label, self_s, count, _parent in self.self_times():
            entry = totals.setdefault((layer, op),
                                      {"calls": 0, "self_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["count"] += count
        return totals

    def label_totals(self, layer: str) -> dict[tuple[str, str], float]:
        """Self seconds per ``(label, op)`` inside one layer."""
        totals: dict[tuple[str, str], float] = {}
        for lay, op, label, self_s, _count, _parent in self.self_times():
            if lay == layer:
                totals[(label, op)] = totals.get((label, op), 0.0) + self_s
        return totals

    def top_level_seconds(self) -> float:
        """Wall covered by spans that have no parent span."""
        return sum(s[6] - s[5] for s in self.spans if s[1] is None)


def install_layer_shims(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    from repro.backends import registered_backends, resolve_sorter
    from repro.core.estimators import build_estimator, \
        registered_estimator_kinds
    from repro.core.histograms import histogram_from_sorted
    from repro.core.pipeline import Windower
    from repro.errors import SummaryError
    from repro.query import Planner, QueryFrontEnd
    from repro.service import ShardedMiner
    from repro.service.mp_executor import MpShardedMiner

    tracer.patch_method(
        Windower, "push", "pipeline.windower", "push",
        count=lambda args, before: (
            args[0].pending if before is None else args[0].pending - before))

    sorter_classes = {type(resolve_sorter(name))
                      for name in registered_backends()}
    for cls in sorted(sorter_classes, key=lambda c: c.__name__):
        tracer.patch_method(
            cls, "sort_batch", "sorting", "sort_batch",
            label=lambda args: getattr(args[0], "name", ""),
            count=lambda args, before: (
                0 if before is None else sum(int(w.size) for w in args[1])))

    tracer.patch_function(histogram_from_sorted, "histograms",
                          "histogram_from_sorted")

    estimator_classes = set()
    for kind in registered_estimator_kinds():
        try:
            estimator_classes.add(type(build_estimator(
                kind, eps=0.1, window_size=None, stream_length_hint=1000)))
        except SummaryError:  # restore-only kinds cannot be built by name
            continue
    for cls in sorted(estimator_classes, key=lambda c: c.__name__):
        kind_of = lambda args: type(args[0]).__name__  # noqa: E731
        tracer.patch_method(cls, "update_batch", "estimators", "update",
                            label=kind_of)
        for name in ("quantile", "frequent_items", "estimate", "items",
                     "summaries", "merge", "space", "__len__"):
            op = "space" if name in ("space", "__len__") else "query"
            tracer.patch_method(cls, name, "estimators", op, label=kind_of)

    for pool in (ShardedMiner, MpShardedMiner):
        label = lambda args: type(args[0]).__name__  # noqa: E731
        tracer.patch_method(pool, "ingest", "service", "ingest", label=label)
        tracer.patch_method(pool, "drain", "service", "drain", label=label)
        for name in ("quantile", "frequent_items", "estimate", "distinct"):
            tracer.patch_method(pool, name, "service", "query", label=label)
        # Misses of the merge-on-query memo: the merges actually computed.
        tracer.patch_method(pool, "_memo", "service", "memo", label=label,
                            count=_memo_miss_counter)

    tracer.patch_method(Planner, "plan", "query", "plan")
    tracer.patch_method(QueryFrontEnd, "register", "query", "register")
    tracer.patch_method(QueryFrontEnd, "answer", "query", "answer")


def _memo_miss_counter(args, before):
    """1 when ``pool._memo(op, build)`` will rebuild ``op``, else 0."""
    if before is not None:
        return before
    pool, op = args[0], args[1]
    if op == "retired":
        return 0
    entry = pool._answer_cache.get(op)
    return int(entry is None or entry[0] != pool._state_version)
