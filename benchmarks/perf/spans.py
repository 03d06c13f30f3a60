"""Outside-in layer tracing for the traced run.

Nothing under ``src/`` knows about this file.  Three mechanisms, all
installed by the benchmark for one traced pass and removed after it:

* :class:`SpanSUT` - a transparent proxy interposed at a SUT-protocol
  boundary.  It records a span around ``issue_query`` (the wrapped
  SUT's layer) and around the completion/chunk callback the wrapped SUT
  delivers into (the receiving layer).
* :func:`install` - wrappers around the function-shaped entry points
  (``EventLoop.schedule/post/run``, ``SampleSelector.draw``,
  ``QueryLog.record_*`` ...).  The ``schedule``/``post`` wrapper also
  wraps the scheduled callback in a span attributed to the module that
  defined it, so every event the loop runs lands on a layer.
* :func:`calls_by_module` - a ``cProfile`` pass read for call *counts*
  only, aggregated by ``repro.<pkg>.<module>``; on a wall-clock loop
  :func:`profile_callbacks` keeps the waiting out of the count.

A layer is a module name without the ``repro.`` prefix.  A layer's self
time is its spans' duration minus the part their child spans cover.
Spans stay in memory; :meth:`Tracer.dump` writes them when the run ends.
"""

from __future__ import annotations

import cProfile
import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.query import StreamChunk

#: Span records kept for the trace file and the tree checks; beyond
#: this only the per-layer aggregates grow (a paper_sweep pass makes
#: well over a million spans).
KEEP_SPANS = 20_000


def layer_of_module(module: str) -> str:
    return module[len("repro."):] if module.startswith("repro.") else module


class Tracer:
    """In-memory span recorder with incremental self-time aggregates."""

    def __init__(self) -> None:
        #: (layer, kind, query_id, parent, host_start, host_end,
        #: virtual_time); ``parent`` indexes this list, -1 for a root.
        self.spans: List[Optional[tuple]] = []
        self.total_spans = 0
        #: (layer, kind) -> [self seconds, calls]
        self.agg: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0.0, 0])
        #: seconds covered by root spans (no parent).
        self.root_s = 0.0
        #: Same aggregates for wrappers that fire off the loop thread
        #: (socket readers): durations only, no nesting.
        self.off_thread: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0.0, 0])
        #: The run's real event loop, for virtual timestamps.
        self.loop = None
        self._stack: List[list] = []
        self._main = threading.get_ident()
        self._layers: Dict[object, str] = {}

    # -- recording --------------------------------------------------------------

    def enter(self, layer: str, kind: str, query_id: Optional[int]) -> None:
        stack = self._stack
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        loop = self.loop
        vt = loop.clock.now() if loop is not None else None
        stack.append([index, layer, kind, query_id, parent, vt, 0.0,
                      perf_counter()])

    def exit(self) -> None:
        end = perf_counter()
        index, layer, kind, query_id, parent, vt, child, start = (
            self._stack.pop())
        duration = end - start
        entry = self.agg[(layer, kind)]
        entry[0] += duration - child
        entry[1] += 1
        self.total_spans += 1
        if self._stack:
            self._stack[-1][6] += duration
        else:
            self.root_s += duration
        if index >= 0:
            self.spans[index] = (layer, kind, query_id, parent, start, end,
                                 vt)

    # -- wrapping ---------------------------------------------------------------

    def spanned(self, fn: Callable, layer: str, kind: str,
                qarg: Optional[int] = None) -> Callable:
        """``fn`` timed as one span per call.  ``qarg`` names the
        positional argument that is the query (or its id)."""
        enter, exit_, main = self.enter, self.exit, self._main
        off = self.off_thread

        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    entry = off[(layer, kind)]
                    entry[0] += perf_counter() - start
                    entry[1] += 1
            query_id = None
            if qarg is not None and len(args) > qarg:
                query_id = getattr(args[qarg], "id", args[qarg])
            enter(layer, kind, query_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def layer_of_callback(self, callback: Callable) -> str:
        """The layer (module) whose code ``callback`` runs."""
        code = getattr(callback, "__code__", None)
        if code is None:
            func = getattr(callback, "__func__", None)
            code = getattr(func, "__code__", None)
        layer = self._layers.get(code)
        if layer is None:
            layer = layer_of_module(
                getattr(callback, "__module__", None) or "other")
            if code is not None:
                self._layers[code] = layer
        return layer

    def event(self, callback: Callable) -> Callable:
        """A loop callback timed as an ``event`` span of its own module."""
        layer = self.layer_of_callback(callback)
        enter, exit_ = self.enter, self.exit

        def run_event():
            enter(layer, "event", None)
            try:
                callback()
            finally:
                exit_()

        return run_event

    # -- reading ----------------------------------------------------------------

    def self_s(self, layer: str, kind: Optional[str] = None) -> float:
        """Self seconds of ``layer``, optionally of one span kind."""
        return sum(entry[0] for (name, k), entry in self.agg.items()
                   if name == layer and (kind is None or k == kind))

    def calls(self, layer: str, kind: str) -> int:
        return int(self.agg[(layer, kind)][1]) if (
            (layer, kind) in self.agg) else 0

    def summary(self) -> dict:
        layers: Dict[str, dict] = {}
        for (layer, kind), (seconds, calls) in sorted(self.agg.items()):
            layers.setdefault(layer, {})[kind] = {
                "self_s": seconds, "calls": int(calls)}
        for (layer, kind), (seconds, calls) in sorted(
                self.off_thread.items()):
            layers.setdefault(layer, {})[kind + "@reader"] = {
                "self_s": seconds, "calls": int(calls)}
        return layers

    def dump(self, path: str, header: dict, calls_by_module: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("layer", "kind", "query_id", "parent", "host_start",
                  "host_end", "virtual_time")
        payload = dict(header)
        payload.update({
            "span_fields": fields,
            "spans_total": self.total_spans,
            "spans": [s for s in self.spans if s is not None],
            "layers": self.summary(),
            "calls_by_module": calls_by_module,
        })
        with open(path, "w") as handle:
            json.dump(payload, handle)


def check_span_tree(spans: List[tuple]) -> List[str]:
    """Well-formedness of recorded spans: every child lies inside its
    parent, and no span's children cover more than the span itself."""
    problems = []
    covered = defaultdict(float)
    for index, (_, _, _, parent, start, end, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ends before it starts")
        if parent < 0:
            continue
        if parent >= index:
            problems.append(f"span {index} names a later parent {parent}")
            continue
        _, _, _, _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            problems.append(f"span {index} leaks out of parent {parent}")
        covered[parent] += end - start
    for parent, child_s in covered.items():
        _, _, _, _, start, end, _ = spans[parent]
        if child_s > (end - start) + 1e-9:
            problems.append(f"span {parent} has negative self time")
    return problems


class SpanSUT:
    """Transparent proxy at one SUT-protocol boundary.

    ``issue_query`` is a span of the wrapped SUT's layer; whatever the
    wrapped SUT delivers (completions, failures, chunks) is a span of
    ``receiver``, the layer whose callback handles it.  Every other
    attribute falls through to the wrapped SUT, so ``close``, stats and
    fleet cache hooks keep working.
    """

    def __init__(self, inner, tracer: Tracer, receiver: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer_of_module(type(inner).__module__)
        self._receiver = receiver

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def start_run(self, loop, responder) -> None:
        tracer = self._tracer
        tracer.loop = loop
        if not getattr(responder, "_is_span", False):
            # A pass-through wrapper (PrefixCacheSUT) hands its own
            # responder inward; that one is already a span.
            receiver, deliver_to = self._receiver, responder
            enter, exit_ = tracer.enter, tracer.exit

            def responder(query, responses):
                kind = ("chunk" if type(responses) is StreamChunk
                        else "completion")
                enter(receiver, kind, query.id)
                try:
                    deliver_to(query, responses)
                finally:
                    exit_()

            responder._is_span = True
        self._inner.start_run(loop, responder)

    def issue_query(self, query) -> None:
        tracer = self._tracer
        tracer.enter(self._layer, "issue", query.id)
        try:
            self._inner.issue_query(query)
        finally:
            tracer.exit()

    def flush(self) -> None:
        tracer = self._tracer
        tracer.enter(self._layer, "flush", None)
        try:
            self._inner.flush()
        finally:
            tracer.exit()


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the function-shaped entry points; returns the undo."""
    from repro.core import loadgen
    from repro.core.events import EventLoop
    from repro.core.logging import QueryLog
    from repro.core.sampler import QueryFactory, SampleSelector
    from repro.faults.chaos import ChaosOrchestrator
    from repro.fleet.outlier import OutlierDetector
    from repro.harness import experiments, tuning
    from repro.network import protocol
    from repro.network.protocol import FrameReader
    from repro.sessions.driver import SessionDriver
    from repro.sessions.replay import ReplayGraph
    from repro.streaming.model import StreamModel
    from repro.sut.simulated import SimulatedSUT

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr, layer, kind, qarg=None) -> None:
        patch(owner, attr, tracer.spanned(
            owner.__dict__[attr], layer, kind, qarg))

    schedule, post = EventLoop.schedule, EventLoop.post
    timed_schedule = tracer.spanned(schedule, "core.events", "schedule")

    def traced_schedule(self, when, callback):
        return timed_schedule(self, when, tracer.event(callback))

    def traced_post(self, callback):
        return post(self, tracer.event(callback))

    patch(EventLoop, "schedule", traced_schedule)
    patch(EventLoop, "post", traced_post)
    span(EventLoop, "run", "core.events", "run")
    span(SampleSelector, "draw", "core.sampler", "draw")
    span(QueryFactory, "make_query", "core.query", "make")
    span(QueryLog, "record_issue", "core.logging", "record", 1)
    span(QueryLog, "observe_completion", "core.logging", "record", 1)
    span(QueryLog, "record_completion", "core.logging", "record", 1)
    span(QueryLog, "record_failure", "core.logging", "record", 1)
    span(QueryLog, "record_chunk", "core.logging", "chunk", 1)
    span(loadgen, "compute_metrics", "core.metrics", "finalize")
    span(loadgen, "validate_run", "core.metrics", "finalize")
    span(StreamModel, "plan", "streaming.model", "plan", 1)
    span(ReplayGraph, "plan", "sessions.replay", "plan", 1)
    span(SessionDriver, "on_completion", "sessions.driver", "completion", 1)
    span(OutlierDetector, "evaluate", "fleet.outlier", "tick")
    span(ChaosOrchestrator, "_tick", "faults.chaos", "tick")
    span(protocol, "issue_frame", "network.protocol", "encode", 0)
    span(protocol, "parse_complete", "network.protocol", "decode")
    span(FrameReader, "feed", "network.protocol", "decode")
    span(tuning, "run_benchmark", "core.loadgen", "run")
    # run_submission builds its SUT itself; hand it a spanned one.
    patch(experiments, "SimulatedSUT",
          lambda *args, **kwargs: SpanSUT(
              SimulatedSUT(*args, **kwargs), tracer, "core.scenarios"))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def profile_callbacks(profile: cProfile.Profile) -> Callable[[], None]:
    """Turn ``profile`` on inside event-loop callbacks only; returns
    the undo.  A realtime loop makes a timing-dependent number of calls
    while it waits (0 or 1 ``Condition.wait`` per query, ~25 calls
    each), and the LoadGen's janitor ticks every 10 ms of wall time
    however many queries that is; the work inside the other callbacks
    repeats."""
    from repro.core.events import EventLoop

    schedule, post = EventLoop.schedule, EventLoop.post

    def profiled(callback):
        if getattr(callback, "__module__", None) == "repro.core.loadgen":
            return callback  # janitor / watchdog: time-driven, not per query

        def run_profiled():
            profile.enable()
            try:
                callback()
            finally:
                profile.disable()
        return run_profiled

    EventLoop.schedule = lambda self, when, callback: schedule(
        self, when, profiled(callback))
    EventLoop.post = lambda self, callback: post(self, profiled(callback))

    def restore() -> None:
        EventLoop.schedule, EventLoop.post = schedule, post

    return restore


def calls_by_module(profile: cProfile.Profile
                    ) -> Tuple[int, Dict[str, int]]:
    """Total Python + C calls a profile saw, and the counts per
    ``<pkg>.<module>`` of ``repro`` ("builtins" for C functions,
    "other" for everything else).  Times in the profile are ignored."""
    by_module: Dict[str, int] = defaultdict(int)
    total = 0
    marker = os.sep + "repro" + os.sep
    for entry in profile.getstats():
        total += entry.callcount
        code = entry.code
        if isinstance(code, str):
            module = "builtins"
        else:
            filename = code.co_filename
            cut = filename.rfind(marker)
            if cut < 0:
                module = "other"
            else:
                module = filename[cut + len(marker):-len(".py")].replace(
                    os.sep, ".")
        by_module[module] += entry.callcount
    return total, dict(sorted(by_module.items(),
                              key=lambda item: -item[1]))
