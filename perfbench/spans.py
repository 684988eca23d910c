"""Out-of-process-style tracing: spans recorded around calls into each layer.

The benchmark never reads the program's own timers.  In a traced run it
replaces a handful of public methods with thin wrappers that time the call
and keep the span in memory; :meth:`SpanRecorder.uninstall` puts the
originals back, so the untraced phases run the shipped code unchanged.

Spans nest per thread: a layer's *self* time is its span minus the time of
the child spans recorded on the same thread while it ran.  The micro-batcher
hands requests to its own thread, so the request path is stitched across
threads explicitly:

* ``MicroBatcher.submit`` returns a future proxy; the client's ``result()``
  on it is the ``batcher.wait`` span (a child of ``EstimationService.estimate``),
* ``QueryCodec.translate_batch`` on the batcher thread opens a *pass*; the
  queue wait of each request in it is submit -> translate start,
* the pass ends when ``selectivity_from_logits`` returns; the hand-off of
  each request is pass end -> its ``result()`` returning.

Everything inside ``batcher.wait`` that is neither queue wait, a stage span
of the serving pass, nor hand-off is *unattributed* (the glue between
stages); ``trace.unattributed_share`` reports it against the end-to-end
time of the traced requests.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter

import numpy as np

from repro.core import CompiledDuetModel, DuetTrainer, QueryCodec
from repro.data import ColumnStore
from repro.nn import ForwardPlan
from repro.serving import (EstimateCache, EstimationService, MicroBatcher,
                           ModelRegistry, QueryKeyEncoder)

#: (owner, attribute, span name) of every wrapped public entry point
_TIMED_CALLS = (
    (EstimationService, "estimate", "service.estimate"),
    (EstimationService, "refresh", "service.refresh"),
    (QueryKeyEncoder, "key", "cache.key"),
    (EstimateCache, "get", "cache.get"),
    (QueryCodec, "translate_batch", "encoding.translate"),
    (CompiledDuetModel, "encode", "compiled.encode"),
    (CompiledDuetModel, "selectivity_from_logits", "compiled.mask"),
    (CompiledDuetModel, "__init__", "compiled.build"),
    (ForwardPlan, "run", "inference.made"),
    (ColumnStore, "append", "store.append"),
    (ColumnStore, "delete", "store.delete"),
    (ColumnStore, "delta", "store.delta"),
    (DuetTrainer, "fine_tune", "trainer.fine_tune"),
    (ModelRegistry, "save", "registry.save"),
    (ModelRegistry, "load_estimator", "registry.load"),
)

#: spans that run on the batcher thread as part of one serving pass
_PASS_STAGES = ("encoding.translate", "compiled.encode", "inference.made",
                "compiled.mask")


class _Span:
    """Columnar store of one span name: duration and self time per call."""

    __slots__ = ("duration", "self_time")

    def __init__(self) -> None:
        self.duration = array("d")
        self.self_time = array("d")

    def add(self, duration: float, self_time: float) -> None:
        self.duration.append(duration)
        self.self_time.append(self_time)


class _Pass:
    """One batcher pass: when it started and ended, and its stage self time."""

    __slots__ = ("started", "ended", "stage_time")

    def __init__(self, started: float, stage_time: float) -> None:
        self.started = started
        self.ended = started
        self.stage_time = stage_time


class _TracedFuture:
    """Proxy over the batcher's future; ``result()`` is the wait span."""

    __slots__ = ("_future", "_query", "_submitted", "_recorder")

    def __init__(self, future, query, submitted: float, recorder) -> None:
        self._future = future
        self._query = query
        self._submitted = submitted
        self._recorder = recorder

    def result(self, timeout=None):
        try:
            return self._future.result(timeout)
        finally:
            self._recorder._finish_wait(self._query, self._submitted)


class SpanRecorder:
    """In-memory spans around the layers' public calls.

    ``install()`` wraps the entry points; ``recording`` gates whether spans
    are kept (wrappers stay installed across a phase that should not count,
    e.g. the output check).  Not reentrant across recorders: one recorder
    installs at a time.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: dict[str, _Span] = {}
        #: one entry per traced call (``array.append`` is atomic under the
        #: interpreter lock, so client threads need no lock to record)
        self.cache_hits = array("b")
        self.queue_waits = array("d")
        self.handoffs = array("d")
        self.pass_sizes = array("d")
        self.translated = array("d")
        self.fine_tune_rows = array("d")
        #: end-to-end seconds of each traced ``estimate()`` call and the part
        #: of it no span explains
        self.request_seconds = array("d")
        self.unattributed_seconds = array("d")
        self.last_compiled: CompiledDuetModel | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submitted: dict[int, float] = {}
        self._served_by: dict[int, _Pass] = {}
        self._originals: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for owner, attribute, name in _TIMED_CALLS:
            self._patch(owner, attribute, self._timed(name, attribute))
        self._patch(MicroBatcher, "submit", self._traced_submit)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _patch(self, owner: type, attribute: str, make_wrapper) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, start: float, end: float, child: float) -> float:
        """Keep one span and charge it to its parent; returns its self time."""
        duration = end - start
        self_time = duration - child
        stack = self._stack()
        if stack:
            stack[-1][0] += duration
        span = self.spans.get(name)
        if span is None:
            with self._lock:
                span = self.spans.setdefault(name, _Span())
        span.add(duration, self_time)
        return self_time

    def measure(self, name: str, function, *args, **kwargs):
        """Call ``function`` as a span named ``name`` (for the benchmark's
        own calls into a layer, e.g. the cold train)."""
        return self._timed(name, "")(function)(*args, **kwargs)

    def _timed(self, name: str, attribute: str):
        recorder = self

        def make_wrapper(function):
            def wrapper(*args, **kwargs):
                if not recorder.recording:
                    return function(*args, **kwargs)
                frame = [0.0]
                stack = recorder._stack()
                stack.append(frame)
                start = perf_counter()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    stack.pop()
                    self_time = recorder._record(name, start, end, frame[0])
                    recorder._after(name, args, result, start, end, self_time)

            wrapper.__name__ = attribute or getattr(function, "__name__", name)
            wrapper.__wrapped__ = function
            return wrapper

        return make_wrapper

    def _after(self, name, args, result, start, end, self_time) -> None:
        """Per-layer bookkeeping beyond the span itself."""
        current = getattr(self._local, "current_pass", None)
        if name == "cache.get":
            self.cache_hits.append(result is not None)
        elif name == "encoding.translate":
            self.translated.append(len(args[1]))
            self._open_pass(args[1], start, self_time)
        elif name in _PASS_STAGES and current is not None:
            current.stage_time += self_time
            if name == "compiled.mask":
                current.ended = end
                self._local.current_pass = None
        elif name == "compiled.build":
            self.last_compiled = args[0]
        elif name == "trainer.fine_tune" and result is not None:
            self.fine_tune_rows.append(result[0].train_row_indices.size)
        elif name == "service.estimate":
            self.request_seconds.append(end - start)
            self.unattributed_seconds.append(
                getattr(self._local, "unattributed", 0.0))
            self._local.unattributed = 0.0

    def _open_pass(self, queries, started: float, self_time: float) -> None:
        """Attach a translate call to the requests it serves, if any."""
        submitted = self._submitted
        served = [query for query in queries if id(query) in submitted]
        if not served:
            self._local.current_pass = None
            return
        batch = _Pass(started, self_time)
        self.pass_sizes.append(len(served))
        for query in served:
            self.queue_waits.append(started - submitted.pop(id(query)))
            self._served_by[id(query)] = batch
        self._local.current_pass = batch

    # ------------------------------------------------------------------
    # Batcher hand-off
    # ------------------------------------------------------------------
    def _traced_submit(self, function):
        recorder = self

        def submit(batcher, query, on_batch=None):
            if not recorder.recording:
                return function(batcher, query, on_batch)
            submitted = perf_counter()
            recorder._submitted[id(query)] = submitted
            future = function(batcher, query, on_batch)
            return _TracedFuture(future, query, submitted, recorder)

        submit.__wrapped__ = function
        return submit

    def _finish_wait(self, query, submitted: float) -> None:
        ended = perf_counter()
        self._record("batcher.wait", submitted, ended, 0.0)
        self._submitted.pop(id(query), None)
        batch = self._served_by.pop(id(query), None)
        if batch is None:
            return
        self.handoffs.append(ended - batch.ended)
        # wait = queue wait + pass + hand-off; of the pass, only the stage
        # spans are explained
        self._local.unattributed = (getattr(self._local, "unattributed", 0.0)
                                    + (batch.ended - batch.started)
                                    - batch.stage_time)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return 0 if span is None else len(span.duration)

    def mean_self(self, name: str) -> float:
        """Mean self time per call (seconds); 0 when never called."""
        span = self.spans.get(name)
        if span is None or not len(span.self_time):
            return 0.0
        return float(np.mean(np.frombuffer(span.self_time)))

    def total_duration(self, name: str) -> float:
        span = self.spans.get(name)
        return 0.0 if span is None else float(np.sum(np.frombuffer(span.duration)))

    def summary(self) -> dict:
        """Per-span-name counts and self-time totals (the written trace)."""
        return {name: {"calls": len(span.duration),
                       "total_s": float(np.sum(np.frombuffer(span.duration))),
                       "self_s": float(np.sum(np.frombuffer(span.self_time)))}
                for name, span in sorted(self.spans.items())}
