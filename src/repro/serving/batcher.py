"""Micro-batching scheduler: coalesce concurrent requests into one forward pass.

Duet's estimator is vectorised — one forward pass over a batch of queries
costs barely more than over a single query — but online clients submit one
query at a time.  The :class:`MicroBatcher` bridges the two: requests are
queued, a single scheduler thread drains the queue into batches (up to
``max_batch_size`` queries, waiting at most ``max_wait`` seconds after the
first request of a batch), runs one batched forward pass, and resolves each
request's future.  Under load, batches form naturally while a pass is in
flight; when idle, a request waits at most ``max_wait`` before running solo.
A batch also closes as soon as it holds more than one request and as many
as the previous pass: callers served together come back together, and
once they are all here the rest of the window only adds latency.  While
the scheduler runs, BLAS runs on one thread (:mod:`repro.nn.blas`): BLAS
workers spinning between back-to-back passes would take the cores the
callers need and make a pass's cost depend on scheduling.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Sequence

import numpy as np

from ..nn.blas import single_threaded
from ..workload.query import Query

__all__ = ["MicroBatcher"]


class _Request:
    __slots__ = ("query", "future", "on_batch")

    def __init__(self, query: Query, on_batch=None) -> None:
        self.query = query
        self.on_batch = on_batch
        self.future: "Future[float]" = Future()


class MicroBatcher:
    """Coalesces single-query requests into batched ``runner`` calls.

    ``runner`` receives a list of queries and returns ``(estimates, extra)``:
    one estimate per query (anything :func:`numpy.asarray` accepts) and a
    payload — the serving plan's per-stage timing breakdown — handed to each
    request's ``on_batch`` callback.  When a pass over several requests
    raises, each request is re-run alone, so the exception reaches only the
    futures of the requests that raise it.  Pass counts live in
    the service's metrics (``repro_batches_total``, ``repro_batch_size``),
    not here.
    """

    def __init__(self, runner: Callable[[Sequence[Query]], tuple[np.ndarray, object]],
                 max_batch_size: int = 64, max_wait_ms: float = 2.0) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self._runner = runner
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait_ms / 1e3
        self._pending: deque[_Request] = deque()
        # Guards _pending and _closed; the scheduler waits on it.  submit()
        # wakes the scheduler only for the first request of a batch and for
        # the one that makes the batch as large as the scheduler waits for,
        # so a batch costs two wake-ups, not one per request.
        self._ready = threading.Condition(threading.Lock())
        self._wake_at = 1
        self._closed = False
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-microbatcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, query: Query, on_batch=None) -> "Future[float]":
        """Enqueue one query; the future resolves to its estimate.

        ``on_batch(extra, batch_size)`` — when given — is invoked on the
        scheduler thread after the forward pass that served this request,
        strictly before the future resolves; the tracer attaches the pass's
        stage breakdown to a sampled request through it.  Callbacks must be
        cheap and must not raise (exceptions are swallowed: telemetry never
        fails serving).
        """
        request = _Request(query, on_batch)
        with self._ready:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._pending.append(request)
            if len(self._pending) in (1, self._wake_at):
                self._ready.notify()
        return request.future

    def estimate(self, query: Query) -> float:
        """Convenience blocking wrapper around :meth:`submit`."""
        return self.submit(query).result()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the scheduler after draining already-queued requests."""
        with self._ready:
            self._closed = True
            self._ready.notify()
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        with single_threaded():
            self._schedule()

    def _schedule(self) -> None:
        previous = 0  # size of the previous pass
        while True:
            with self._ready:
                while not self._pending and not self._closed:
                    self._ready.wait()
                if not self._pending:  # closed and drained
                    return
                deadline = time.perf_counter() + self.max_wait
                # A lone request waits out the window for company.
                self._wake_at = previous if previous > 1 else self.max_batch_size
                while len(self._pending) < self._wake_at and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._ready.wait(remaining)
                batch = [self._pending.popleft()
                         for _ in range(min(len(self._pending), self.max_batch_size))]
            previous = len(batch)
            self._run_batch(batch)

    def _run_batch(self, batch: list[_Request]) -> None:
        queries = [request.query for request in batch]
        try:
            result, extra = self._runner(queries)
            estimates = np.asarray(result, dtype=np.float64)
            if estimates.shape != (len(batch),):
                raise ValueError(
                    f"runner returned shape {estimates.shape} for a batch of {len(batch)}")
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            if len(batch) == 1:
                batch[0].future.set_exception(error)
            else:
                for request in batch:
                    self._run_batch([request])
            return
        for request, estimate in zip(batch, estimates):
            if request.on_batch is not None:
                try:
                    request.on_batch(extra, len(batch))
                except Exception:  # noqa: BLE001 — telemetry never fails serving
                    pass
            request.future.set_result(float(estimate))
