"""Online estimation service: the frontend tying registry, cache, batcher and
stats together.

One :class:`EstimationService` wraps one :class:`~repro.core.DuetEstimator`
(usually reloaded from a :class:`~repro.serving.ModelRegistry`) and answers
concurrent single-query ``estimate()`` calls:

1. the query is canonicalised into a cache key; a hit returns immediately
   without touching the model,
2. on a miss the query is handed to the :class:`~repro.serving.MicroBatcher`,
   which coalesces concurrent misses into one pass of the service's
   :class:`~repro.core.CompiledDuetModel` plan — the only serving path,
3. the result is cached and the request latency recorded.

The service is thread-safe and meant to be shared across worker threads —
the usage pattern of a query optimizer asking for cardinalities while
planning many queries at once.

When the underlying data is mutable (a :class:`~repro.data.ColumnStore`),
the service also owns the staleness side of the lifecycle: it knows which
``data_version`` the served model was trained on, reports how many rows have
been appended since (:meth:`EstimationService.staleness`), and can
:meth:`~EstimationService.tune` itself — incremental fine-tune on the
delta, re-register the model, hot-swap the compiled plan, and flush the
estimate cache, all while the old plan keeps serving traffic.  A plan owns
its weights, codec and row count, so the swap is one attribute assignment
and no request ever sees a mix of two model versions.

Every tune attempt — a fine-tune here, or a cold train from
:mod:`repro.lifecycle` — ends in one :class:`TuneOutcome` and commits
through one tail, :meth:`EstimationService.commit`: canary gate, registry
save, install, and a rollback of the save when the install fails.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.compiled import CompiledDuetModel
from ..core.config import ServingConfig
from ..core.estimator import DuetEstimator
from ..core.trainer import DuetTrainer
from ..data.store import ColumnStore
from ..nn import PlanOptions
from ..obs import MetricsRegistry, Trace, Tracer
from ..workload.query import Query
from .batcher import MicroBatcher
from .cache import EstimateCache, QueryKeyEncoder
from .registry import ModelRegistry, RegistryEntry
from .stats import ServiceStats, StatsSnapshot

__all__ = ["EstimationService", "TuneOutcome"]


@dataclass(frozen=True)
class TuneOutcome:
    """How one tune attempt ended.

    ``status`` is one of

    * ``noop`` — nothing churned since the served ``data_version``, so
      nothing was trained;
    * ``rejected`` — the canary gate turned the trained candidate away:
      nothing was saved or swapped, the incumbent keeps serving;
    * ``swapped`` — the candidate serves now;
    * ``failed`` — ``error`` aborted the attempt; the incumbent keeps
      serving.

    ``entry`` is the swapped-in model's registry entry (``None`` without a
    registry) and ``data_version`` the store version the candidate was
    trained on.
    """

    status: str
    entry: RegistryEntry | None = None
    data_version: int | None = None
    error: Exception | None = None


class EstimationService:
    """Concurrent, cached, micro-batched frontend over one estimator."""

    def __init__(self, estimator: DuetEstimator,
                 config: ServingConfig | None = None,
                 *,
                 store: ColumnStore | None = None,
                 registry: ModelRegistry | None = None,
                 dataset: str | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.estimator = estimator
        self.config = config or ServingConfig()
        # Data lifecycle wiring: the live store (for staleness/refresh), the
        # registry to re-register refreshed models into, and the dataset name
        # the registry files them under.  A Snapshot-backed estimator brings
        # its own store; everything else defaults to static-data behaviour.
        self.store = store if store is not None else getattr(estimator.table,
                                                             "store", None)
        self.registry = registry
        self.dataset = dataset or estimator.table.name
        self.model_version: str | None = getattr(estimator, "model_version", None)
        self.data_version: int | None = getattr(estimator, "data_version", None)
        if self.data_version is None:
            self.data_version = getattr(estimator.table, "data_version", None)
        self._keys = QueryKeyEncoder(estimator.table, namespace=self._namespace())
        self.cache = EstimateCache(self.config.cache_capacity)
        #: one registry per service unless the caller passes a shared one
        #: (the lifecycle scheduler shares it, so serving and lifecycle
        #: metrics land in one exposition)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServiceStats(latency_window=self.config.latency_window,
                                  metrics=self.metrics)
        obs = self.config.obs
        #: span sampler; ``trace_sample_rate == 0`` keeps the request path
        #: allocation-free (raise ``tracer.sample_rate`` at runtime to dial
        #: tracing up on a live service)
        self.tracer = Tracer(sample_rate=obs.trace_sample_rate,
                             keep_slowest=obs.trace_keep_slowest)
        self.metrics.gauge("repro_cache_entries",
                           "Live entries of the estimate LRU cache.",
                           fn=lambda: len(self.cache))
        #: the serving plan: every forward pass runs through it, and a
        #: hot-swap replaces it with one assignment
        self._plan: CompiledDuetModel = self._build_plan()
        self.metrics.gauge("repro_plan_buffer_bytes",
                           "Reusable buffer footprint of the serving plan.",
                           fn=lambda: self._plan.buffer_bytes)
        # Re-entrant: tune() holds it across the fine-tune and commit() takes
        # it again around the install.
        self._refresh_lock = threading.RLock()
        self._observers: tuple = ()
        self._observer_lock = threading.Lock()
        self._batcher: MicroBatcher | None = None
        if self.config.micro_batching:
            self._batcher = MicroBatcher(self._run_batch,
                                         max_batch_size=self.config.max_batch_size,
                                         max_wait_ms=self.config.max_wait_ms)

    def _namespace(self) -> tuple:
        """Cache-key scope: estimates are only valid for this identity."""
        return (self.dataset, self.model_version, self.data_version)

    def _build_plan(self) -> CompiledDuetModel:
        """Lower the estimator's current model into this service's plan.

        ``inference_dtype=None`` defers to the estimator's own options (e.g.
        the dtype persisted in the registry), else to the ``PlanOptions()``
        default, float32; matching options share the
        estimator's existing plan instead of building a second one.  The
        estimator's default path is never flipped.  All passes funnel
        through the single batcher thread, so plan buffers are reused batch
        after batch.
        """
        dtype = self.config.inference_dtype
        if dtype is None:
            options = self.estimator.compile_options or PlanOptions()
        else:
            options = PlanOptions(dtype=dtype)
        plan = self.estimator.plan_for(options)
        if self.config.obs.profile_plan_stages:
            plan.enable_profiling(True)
        return plan

    def profile_report(self) -> dict:
        """Per-stage attribution of the serving plan's time.

        All-zero counters until ``ObsConfig.profile_plan_stages`` enables
        the hooks.
        """
        return self._plan.profile_report()

    @classmethod
    def from_registry(cls, registry: ModelRegistry | str, dataset: str,
                      version: str | None = None,
                      config: ServingConfig | None = None,
                      store: ColumnStore | None = None) -> "EstimationService":
        """Start a service from a saved model: registry path + dataset name.

        Passing the live ``store`` the dataset is ingested into arms the
        staleness/refresh lifecycle; the registry is kept attached so
        :meth:`refresh` re-registers fine-tuned models under new versions.
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        return cls(registry.load_estimator(dataset, version), config,
                   store=store, registry=registry, dataset=dataset)

    # ------------------------------------------------------------------
    # Observers (lifecycle taps on the served query stream)
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register a callable invoked with every served :class:`Query`.

        The lifecycle layer uses this to sample the live query stream into
        its drift probe set without the service knowing about monitors.
        Observers run on the caller's thread and must be cheap; an observer
        exception is swallowed (monitoring must never fail serving).
        """
        with self._observer_lock:
            self._observers = (*self._observers, observer)

    def remove_observer(self, observer) -> None:
        with self._observer_lock:
            # Equality, not identity: bound methods (monitor.observe) are
            # fresh objects on every attribute access but compare equal.
            self._observers = tuple(existing for existing in self._observers
                                    if existing != observer)

    def _notify_observers(self, query: Query) -> None:
        for observer in self._observers:  # tuple read is atomic, no lock
            try:
                observer(query)
            except Exception:  # noqa: BLE001 — monitoring must not fail serving
                pass

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        """Answer one query: cache, then (micro-batched) forward pass."""
        started = time.perf_counter()
        # With sampling at 0 this is one attribute read and one compare.
        trace: Trace | None = self.tracer.maybe_trace(detail=query)
        if self._observers:
            self._notify_observers(query)
        # Capture the key encoder once: a concurrent hot-swap replaces
        # self._keys (new namespace) and flushes the cache, and re-checking
        # identity before the put keeps this request from re-inserting an
        # estimate under the superseded namespace after the flush.
        keys = self._keys
        key = keys.key(query) if self.config.cache_capacity else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.record_request(time.perf_counter() - started, cache_hit=True)
                if trace is not None:
                    trace.add("cache_lookup", trace.elapsed())
                    trace.finish(cache_hit=True)
                return cached
        if trace is not None:
            # Key encoding + the missed probe, measured from the trace start.
            trace.add("cache_lookup", trace.elapsed())
        if self._batcher is not None:
            if trace is not None:
                batch_started = time.perf_counter()
                estimate = self._batcher.submit(
                    query, on_batch=trace.attach_breakdown).result()
                trace.add_batch_span(time.perf_counter() - batch_started)
            else:
                estimate = self._batcher.submit(query).result()
        else:
            batch_started = time.perf_counter()
            estimates, breakdown = self._run_batch([query])
            estimate = float(estimates[0])
            if trace is not None:
                trace.attach_breakdown(breakdown, 1)
                trace.add_batch_span(time.perf_counter() - batch_started)
        if key is not None and self._keys is keys:
            self.cache.put(key, estimate)
        self.stats.record_request(time.perf_counter() - started, cache_hit=False)
        if trace is not None:
            trace.finish(cache_hit=False)
        return estimate

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Vectorised offline path: answer a whole batch through the cache.

        Cached queries are served from the cache; the rest go through one
        forward pass.  Useful for accuracy evaluation of a running service.
        """
        queries = list(queries)
        started = time.perf_counter()
        if self._observers:
            for query in queries:
                self._notify_observers(query)
        estimates = np.empty(len(queries), dtype=np.float64)
        missing: list[int] = []
        encoder = self._keys  # captured once; see estimate() for why
        keys: list = [None] * len(queries)
        for index, query in enumerate(queries):
            key = encoder.key(query) if self.config.cache_capacity else None
            keys[index] = key
            cached = self.cache.get(key) if key is not None else None
            if cached is None:
                missing.append(index)
            else:
                estimates[index] = cached
        if missing:
            computed, _ = self._run_batch([queries[index] for index in missing])
            for position, index in enumerate(missing):
                estimates[index] = computed[position]
                if keys[index] is not None and self._keys is encoder:
                    self.cache.put(keys[index], float(computed[position]))
        per_query = (time.perf_counter() - started) / max(len(queries), 1)
        missed = set(missing)
        for index in range(len(queries)):
            self.stats.record_request(per_query, cache_hit=index not in missed)
        return estimates

    def probe_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Forward pass outside the request path: no cache, no counters.

        The drift monitor measures probe accuracy through this so that
        monitoring traffic neither skews the operator-facing request/latency
        statistics nor evicts organic entries from the estimate cache.
        Runs whatever plan currently serves (safe concurrently with the
        batcher: plans serialise on their own lock).
        """
        estimates, _ = self._plan.estimate_with_breakdown(queries)
        return estimates

    def _run_batch(self, queries: Sequence[Query]):
        """One forward pass; returns ``(estimates, breakdown)``.

        The breakdown rides through the micro-batcher's ``extra`` channel to
        traced requests (see :meth:`MicroBatcher.submit`).
        """
        estimates, breakdown = self._plan.estimate_with_breakdown(queries)
        self.stats.record_batch(len(queries))
        return estimates, breakdown

    # ------------------------------------------------------------------
    # Data lifecycle: staleness and refresh
    # ------------------------------------------------------------------
    def staleness(self) -> int:
        """Rows churned in the store since the served model was trained.

        Churn counts both appends *and* deletes — a model is equally stale
        whichever way the live set moved, so a pure-delete workload drives
        staleness (and with it the refresh triggers) exactly like an append
        burst.  ``0`` for a service without a live store (static data can't
        go stale).  A model with no recorded ``data_version`` is counted as
        trained on the empty store: every current row is stale.
        """
        if self.store is None:
            return 0
        return self.store.rows_since(self.data_version or 0)

    def refresh(self, *, epochs: int | None = None,
                replay_fraction: float | None = None,
                version: str | None = None,
                throttle=None, gate=None) -> RegistryEntry | None:
        """:meth:`tune`, raising its error; returns the new registry entry.

        ``None`` when nothing churned, when the gate rejected the candidate,
        or when no registry is attached.  Raises what aborted the tune —
        :class:`~repro.data.DomainGrowthError` when an append grew a
        column's domain (that needs a cold train, which no amount of
        fine-tuning can replace).
        """
        outcome = self.tune(epochs=epochs, replay_fraction=replay_fraction,
                            version=version, throttle=throttle, gate=gate)
        if outcome.error is not None:
            raise outcome.error
        return outcome.entry

    def tune(self, *, epochs: int | None = None,
             replay_fraction: float | None = None,
             version: str | None = None,
             throttle=None, gate=None) -> TuneOutcome:
        """Absorb churned data: fine-tune, then :meth:`commit` the candidate.

        Runs :meth:`DuetTrainer.fine_tune` over the delta between the served
        model's ``data_version`` and the store's current snapshot — appended
        rows trained on directly, removed rows replayed as negatives.  The
        fine-tune happens on a parameter *clone*, so concurrent traffic
        keeps reading the untouched serving plan.

        ``throttle`` is passed through to the fine-tuning loop (called after
        every optimiser step); the lifecycle scheduler uses it to make the
        tune yield to serving threads in bounded batch slices.  ``gate`` is
        the canary hook :meth:`commit` consults.

        Never raises: an error — a missing store or model, a
        :class:`~repro.data.DomainGrowthError`, a training or registry
        fault — comes back as a ``failed`` outcome.
        """
        try:
            if self.store is None:
                raise RuntimeError(
                    "tuning needs a live ColumnStore; construct the "
                    "service with store=... (or an estimator over a Snapshot)")
            model = getattr(self.estimator, "model", None)
            if model is None:
                raise RuntimeError(
                    f"estimator {self.estimator.name!r} has no trainable "
                    f"model; tuning supports Duet estimators")
            # Fast path: nothing churned (appended *or* deleted) since the
            # served data_version — skip the snapshot/delta materialisation,
            # the pointless fine-tune, and (crucially) the cache flush that
            # would evict perfectly valid entries.  Raced mutations are
            # caught again under the lock below.
            if self.staleness() == 0:
                return TuneOutcome("noop", data_version=self.data_version)
            with self._refresh_lock:
                snapshot = self.store.snapshot()
                delta = self.store.delta(self.data_version or 0)
                if delta.churned_rows == 0 and not delta.domains_grew:
                    return TuneOutcome("noop", data_version=self.data_version)
                # Tune a clone so in-flight requests keep reading the
                # original weights; clone() raises the typed
                # DomainGrowthError when the append grew a domain.
                tuned = model.clone(snapshot)
                DuetTrainer.fine_tune(
                    snapshot, tuned, delta,
                    epochs=(epochs if epochs is not None
                            else self.config.refresh_epochs),
                    replay_fraction=(replay_fraction
                                     if replay_fraction is not None
                                     else self.config.replay_fraction),
                    throttle=throttle)
                return self.commit(
                    tuned, snapshot.data_version, gate=gate, version=version,
                    metadata={"fine_tuned_from": self.model_version,
                              "base_data_version": delta.base_version})
        except Exception as error:  # noqa: BLE001 — reported on the outcome
            return TuneOutcome("failed", error=error)

    def commit(self, model, data_version: int | None, *, gate=None,
               version: str | None = None,
               metadata: dict | None = None) -> TuneOutcome:
        """The one commit tail of every tune: gate, save, install.

        ``gate`` (the canary hook) receives the candidate before anything
        is saved; returning falsy yields a ``rejected`` outcome and leaves
        service and registry untouched.  With a registry attached the
        candidate is saved under a new version carrying ``data_version``,
        then :meth:`_install` swaps it in.  If the install fails the saved
        version is discarded again — a registered-but-never-served version
        must not become the manifest's protected "latest" — and the error
        propagates.  Runs under ``_refresh_lock``, so commits and fine-tunes
        never interleave.
        """
        with self._refresh_lock:
            if gate is not None and not gate(model):
                return TuneOutcome("rejected", data_version=data_version)
            entry = None
            if self.registry is not None:
                entry = self.registry.save(
                    model, self.dataset, version=version, metadata=metadata,
                    compile_options=self.estimator.compile_options,
                    data_version=data_version)
            try:
                self._install(model, data_version,
                              entry.version if entry is not None else None)
            except Exception:
                if entry is not None:
                    self.registry.discard(entry.dataset, entry.version)
                raise
            return TuneOutcome("swapped", entry=entry,
                               data_version=data_version)

    def swap_model(self, model, *, data_version: int | None = None,
                   model_version: str | None = None) -> None:
        """Atomically make ``model`` the served model.

        A model trained out-of-band (its table may carry *grown* domains
        the old model could not absorb) is swapped in exactly like a tune
        result, without a gate or a registry save — its plan built while
        the old one keeps serving, then made live by one attribute
        assignment, cache re-keyed and flushed.  ``data_version`` defaults
        to the model table's own version when it is a snapshot.
        """
        with self._refresh_lock:
            if data_version is None:
                data_version = getattr(model.table, "data_version", None)
            self._install(model, data_version, model_version)

    def _install(self, model, data_version: int | None,
                 model_version: str | None) -> None:
        """Hot-swap tail shared by commit() and swap_model().

        Caller holds ``_refresh_lock``.  The estimator is re-pointed first
        (requests never read it), then the new plan is built — one plan,
        shared with a compiled estimator when the options match — while the
        old plan keeps answering.  A plan carries its own codec and row
        count, so the single ``_plan`` assignment switches every request
        from the old version to the new one with no mixed answers.  The
        cache is re-keyed before dropping the stale entries.
        """
        estimator = self.estimator
        estimator.model = model
        estimator.table = model.table
        estimator.data_version = data_version
        if model_version is not None:
            estimator.model_version = model_version
        if estimator.compiled:
            estimator.compile(estimator.compile_options)
        self._plan = self._build_plan()
        if model_version is not None:
            self.model_version = model_version
        self.data_version = data_version
        self._keys = QueryKeyEncoder(model.table, namespace=self._namespace())
        self.cache.clear()
        self.stats.record_swap()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        return self.stats.snapshot()

    @property
    def table(self):
        return self.estimator.table

    def close(self) -> None:
        if self._batcher is not None:
            self._batcher.close()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
