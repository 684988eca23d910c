"""The refresh scheduler: a daemon-thread policy loop over one service.

:meth:`EstimationService.tune` makes models *refreshable*; this loop makes
them *refreshed*.  Each poll settles a finished background cold train,
compacts a tombstone-heavy store (:class:`~repro.lifecycle.CompactionPolicy`),
or asks the :class:`DriftMonitor` for a :class:`RefreshDecision`; a positive
decision that holds for ``debounce_polls`` polls starts a fine-tune.  A
fine-tune failing with :class:`~repro.data.DomainGrowthError`, and every
compaction, escalates to a background cold train
(:mod:`repro.lifecycle.coldtrain`).  Every candidate passes the
:class:`~repro.lifecycle.ShadowEvaluator`'s canary gate before it may swap.

**One tune path.**  Every tune attempt — fine-tune, cold train, compaction
escalation — ends in one :class:`~repro.serving.TuneOutcome`, and one settle
step maps it to its events and to the time before which the next attempt
may not start:

* ``swapped`` logs a ``refresh`` / ``cold_train`` event, rebases the drift
  baseline, runs the :class:`~repro.lifecycle.RetentionPolicy`, closes the
  circuit breaker and starts the ``cooldown_seconds`` cooldown;
* ``rejected`` (the gate already logged ``canary_reject``) and ``noop``
  (``refresh_noop``: an accuracy trigger with nothing churned) swap nothing,
  but start the cooldown too;
* ``failed`` logs an ``error`` and parks the tune path for an exponential
  ``failure_backoff_seconds`` window instead: a failed tune never consumes
  the success cooldown.  ``breaker_failure_threshold`` consecutive failures
  open a circuit breaker that refuses every attempt for
  ``breaker_cooldown_seconds``, then half-opens for one trial (success
  closes it, failure re-opens it).  Each transition is a ``breaker`` event.

**One admission rule.**  The decision path and the compaction check both
ask :meth:`RefreshScheduler._admit`: refused while the breaker is open or
before the not-before time (labelled ``cooldown`` or ``backoff`` by what
set it), and otherwise only if the tune lock is free — at most one tune is
ever in flight, and the tuning loop yields to serving threads in bounded
batch slices (``tune_slice_batches`` / ``tune_yield_seconds``).

:meth:`EstimationService.refresh` stays the manual entry point: it runs the
same :meth:`~EstimationService.tune`, raises a ``failed`` outcome's error,
and returns the new registry entry (``None`` for a no-op, a rejection, or a
service without a registry).  Every step lands in the
:class:`~repro.lifecycle.EventLog`; nothing the loop does can raise into (or
block) the serving path.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, wait
from functools import partial

from ..core.config import LifecyclePolicy
from ..data.store import DomainGrowthError
from ..obs import MetricsRegistry
from ..serving.service import TuneOutcome
from .coldtrain import start_cold_train
from .compaction import CompactionPolicy
from .events import EventLog, LifecycleEvent
from .monitor import DriftMonitor, RefreshDecision
from .retention import RetentionPolicy
from .shadow import ShadowEvaluator

__all__ = ["RefreshScheduler"]

#: numeric encoding of the circuit-breaker state for the exported gauge
BREAKER_STATE_LEVELS = {"closed": 0, "half_open": 1, "open": 2}

#: tune/compaction duration buckets (seconds) — training runs, not requests
TUNE_SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                        60.0, 300.0)


class RefreshScheduler:
    """Background control plane keeping one service's model fresh."""

    def __init__(self, service, policy: LifecyclePolicy | None = None,
                 monitor: DriftMonitor | None = None,
                 events: EventLog | None = None,
                 retention: RetentionPolicy | None = None,
                 compaction: CompactionPolicy | None = None,
                 seed: int = 0,
                 metrics: MetricsRegistry | None = None) -> None:
        self.service = service
        self.policy = policy or (monitor.policy if monitor is not None
                                 else LifecyclePolicy())
        self.monitor = monitor or DriftMonitor(service, self.policy, seed=seed)
        # Default to the service's registry so serving and lifecycle land in
        # one exposition; a service without one gets a private registry.
        self.metrics = (metrics if metrics is not None
                        else getattr(service, "metrics", None) or MetricsRegistry())
        self.events = events or EventLog(metrics=self.metrics)
        self.retention = retention or RetentionPolicy(self.policy)
        self.compaction = compaction or CompactionPolicy(self.policy)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Backpressure: holders of this lock are "the one tune in flight".
        self._tune_lock = threading.Lock()
        self._cold_train: Future | None = None
        # Serialises cold-train finalisation between the loop thread and
        # quiesce() callers, so the outcome is folded in exactly once.
        self._finalise_lock = threading.Lock()
        self._consecutive_hits = 0
        self.shadow = ShadowEvaluator(self.monitor, self.policy)
        # Chaos seam: tests/soak drivers install a FaultInjector here; the
        # throttle closure fires it at site "trainer.step".
        self.fault_injector = None
        # Admission state: the breaker, plus one monotonic not-before time
        # for the next tune and what set it ("cooldown" | "backoff").  An
        # open breaker half-opens once the not-before time passes.
        self._breaker_state = "closed"  # closed | open | half_open
        self._next_tune_at = float("-inf")
        self._parked_by = "cooldown"
        self._consecutive_failures = 0
        self._register_instruments()

    def _register_instruments(self) -> None:
        """Register the control plane's metrics (idempotent on a shared registry)."""
        metrics = self.metrics
        self._poll_seconds = metrics.histogram(
            "repro_lifecycle_poll_seconds",
            "Duration of one scheduler policy evaluation.").labels()
        self._tune_seconds = metrics.histogram(
            "repro_lifecycle_tune_seconds",
            "Duration of tune-path actions, by stage.",
            labels=("stage",), buckets=TUNE_SECONDS_BUCKETS)
        self._breaker_gauge = metrics.gauge(
            "repro_lifecycle_breaker_state",
            "Circuit breaker over the tune path "
            "(0=closed, 1=half_open, 2=open).").labels()
        self._breaker_gauge.set(BREAKER_STATE_LEVELS[self._breaker_state])
        self._canary_gauge = metrics.gauge(
            "repro_canary_last_ratio",
            "Last canary verdict's candidate/incumbent probe median "
            "Q-Error ratio (<= margin passes; 0 until a canary runs).").labels()
        for name, help_text, attribute in (
                ("repro_store_physical_rows",
                 "Physical rows in the live store (incl. tombstoned).",
                 "physical_rows"),
                ("repro_store_live_rows",
                 "Live (non-tombstoned) rows in the store.", "num_rows"),
                ("repro_store_tombstone_fraction",
                 "Dead-row fraction of the store (compaction trigger input).",
                 "tombstone_fraction"),
                ("repro_store_data_version",
                 "Current data version of the live store.", "data_version")):
            metrics.gauge(name, help_text,
                          fn=partial(self._store_stat, attribute))
        metrics.gauge(
            "repro_registry_model_versions",
            "Model versions the registry currently retains for this dataset.",
            fn=self._registry_versions)

    def _store_stat(self, attribute: str) -> float:
        store = getattr(self.service, "store", None)
        if store is None:
            return 0.0
        return float(getattr(store, attribute))

    def _registry_versions(self) -> float:
        registry = getattr(self.service, "registry", None)
        if registry is None:
            return 0.0
        return float(len(registry.versions(self.service.dataset)))

    # ------------------------------------------------------------------
    # Daemon lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "RefreshScheduler":
        """Attach the monitor and start the policy loop; returns ``self``."""
        if self.running:
            return self
        self.monitor.attach()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-lifecycle-scheduler")
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the loop (an in-flight background cold train keeps running)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.monitor.detach()

    def __enter__(self) -> "RefreshScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.policy.poll_interval_seconds):
            try:
                self.poll_once()
            except Exception as error:  # noqa: BLE001 — the loop must survive
                self.events.record("error", stage="poll", error=repr(error))

    # ------------------------------------------------------------------
    # One policy evaluation (also the synchronous test surface)
    # ------------------------------------------------------------------
    def poll_once(self) -> LifecycleEvent:
        """Evaluate the policy once and act on it; returns the decision event."""
        poll_started = time.perf_counter()
        try:
            pending = self._finalise_cold_train()
            if pending is not None:
                return pending
            self._breaker_poll()
            compacted = self._maybe_compact()
            if compacted is not None:
                return compacted
            decision = self.monitor.decide()
            action = self._action_for(decision)
            try:
                event = self.events.record(
                    "decision", action=action, reasons=list(decision.reasons),
                    stale_rows=decision.metrics.stale_rows,
                    stale_fraction=round(decision.metrics.stale_fraction, 4),
                    median_qerror=decision.metrics.median_qerror,
                    probe_size=decision.metrics.probe_size)
                if action == "tune":
                    self._execute(decision)
            finally:
                if action == "tune":
                    self._tune_lock.release()
            return event
        finally:
            self._poll_seconds.observe(time.perf_counter() - poll_started)

    def _action_for(self, decision: RefreshDecision) -> str:
        """Debounce, then admit; ``"tune"`` leaves the tune lock held."""
        if not decision:
            self._consecutive_hits = 0
            return "hold"
        self._consecutive_hits += 1
        if self._consecutive_hits < self.policy.debounce_polls:
            return "debounce"
        return self._admit() or "tune"

    # ------------------------------------------------------------------
    # Admission: breaker + one not-before time + the tune lock
    # ------------------------------------------------------------------
    @property
    def breaker_state(self) -> str:
        """Circuit-breaker state: ``closed`` | ``open`` | ``half_open``."""
        return self._breaker_state

    @property
    def parked(self) -> str | None:
        """Why no tune may start now (``breaker_open``, ``backoff``,
        ``cooldown``), or ``None`` when one may."""
        if self._breaker_state == "open":
            return "breaker_open"
        if time.monotonic() < self._next_tune_at:
            return self._parked_by
        return None

    def _admit(self) -> str | None:
        """The one admission rule; ``None`` admits and holds the tune lock.

        Otherwise returns the reason the attempt is refused: :attr:`parked`,
        or ``busy`` while another tune holds the lock.
        """
        reason = self.parked
        if reason is None and not self._tune_lock.acquire(blocking=False):
            reason = "busy"
        return reason

    def _park(self, reason: str, seconds: float) -> None:
        self._next_tune_at = time.monotonic() + seconds
        self._parked_by = reason

    def _set_breaker(self, state: str, **details) -> None:
        self._breaker_state = state
        self._breaker_gauge.set(BREAKER_STATE_LEVELS[state])
        self.events.record("breaker", state=state, **details)

    def _breaker_poll(self) -> None:
        """Half-open an expired breaker so the next decision may trial-tune."""
        if (self._breaker_state == "open"
                and time.monotonic() >= self._next_tune_at):
            self._set_breaker("half_open",
                              consecutive_failures=self._consecutive_failures)

    def _note_failure(self, stage: str) -> None:
        """Fold one failed attempt into backoff and breaker state.

        Parks the tune path for the backoff (or, when the breaker opens,
        its cooldown if longer) without starting the success cooldown: the
        cooldown spaces out training *cost*, the backoff spaces out
        *retries*, and a failed tune that consumed the cooldown would delay
        the recovery it never earned.
        """
        policy = self.policy
        self._consecutive_failures += 1
        delay = min(policy.failure_backoff_seconds
                    * 2 ** (self._consecutive_failures - 1),
                    policy.failure_backoff_max_seconds)
        threshold = policy.breaker_failure_threshold
        if (self._breaker_state == "half_open"
                or (self._breaker_state == "closed" and threshold is not None
                    and self._consecutive_failures >= threshold)):
            delay = max(delay, policy.breaker_cooldown_seconds)
            self._set_breaker("open", stage=stage,
                              consecutive_failures=self._consecutive_failures,
                              cooldown_seconds=policy.breaker_cooldown_seconds)
        self._park("backoff", delay)

    # ------------------------------------------------------------------
    # Tune attempts and their one settle step
    # ------------------------------------------------------------------
    def _execute(self, decision: RefreshDecision) -> None:
        """Fine-tune (the caller holds the tune lock) and settle the outcome."""
        started = time.perf_counter()
        try:
            try:
                outcome = self.service.tune(
                    epochs=self.policy.refresh_epochs,
                    throttle=self._make_throttle(),
                    gate=self._canary_gate("refresh"))
            except Exception as error:  # noqa: BLE001 — log, keep serving
                outcome = TuneOutcome("failed", error=error)
            if (isinstance(outcome.error, DomainGrowthError)
                    and self.policy.cold_train_on_growth):
                self._escalate(grown_columns=list(outcome.error.columns))
            else:
                self._settle(outcome, "refresh",
                             reasons=list(decision.reasons),
                             seconds=round(time.perf_counter() - started, 3))
        finally:
            self._tune_seconds.observe(time.perf_counter() - started,
                                       stage="refresh")
            self._consecutive_hits = 0

    def _maybe_compact(self) -> LifecycleEvent | None:
        """Compact a tombstone-heavy store and escalate; ``None`` when idle.

        Compaction is cheap but the cold train it escalates to is not, so
        it goes through the same admission as a tune (the tombstone
        fraction persists, so a refused opportunity simply fires on a later
        poll).  A compaction failure settles like a failed tune, and
        serving continues against the uncompacted store.
        """
        if not self.compaction.should_compact(getattr(self.service, "store",
                                                      None)):
            return None
        if self._admit() is not None:
            return None
        started = time.perf_counter()
        try:
            report = self.compaction.compact(self.service)
            event = self.events.record(
                "compaction",
                tombstone_fraction=round(report.tombstone_fraction, 4),
                dropped_rows=report.dropped_rows,
                data_version=report.data_version)
            # The served model's delta base predates the new chunk layout:
            # fine-tuning can no longer see what changed, so go straight to
            # the background cold train.
            self._escalate(reason="compaction")
            return event
        except Exception as error:  # noqa: BLE001 — log, keep serving
            return self._settle(TuneOutcome("failed", error=error),
                                "compaction")
        finally:
            self._tune_seconds.observe(time.perf_counter() - started,
                                       stage="compaction")
            self._tune_lock.release()

    def _escalate(self, **details) -> None:
        """Start the background cold train; it settles on a later poll."""
        self.events.record("cold_train", status="started", **details)
        self._cold_train = start_cold_train(
            self.service, epochs=self.policy.cold_train_epochs,
            throttle=self._make_throttle(),
            gate=self._canary_gate("cold_train"))

    def _finalise_cold_train(self) -> LifecycleEvent | None:
        """Settle a finished escalation; ``None`` when none is in flight.

        While a cold train runs, polling reports instead of tuning (the
        at-most-one-tune rule).
        """
        with self._finalise_lock:
            pending = self._cold_train
            if pending is None:
                return None
            if not pending.done():
                return self.events.record("decision",
                                          action="cold_train_pending")
            self._cold_train = None
        return self._settle(pending.result(), "cold_train")

    def _settle(self, outcome: TuneOutcome, stage: str, **details
                ) -> LifecycleEvent | None:
        """Map one finished tune attempt to its events and next not-before.

        ``stage`` is ``refresh``, ``cold_train`` or ``compaction``;
        ``details`` (the decision's reasons and the tune's duration) go on
        a fine-tune's ``refresh`` event.  A rejection's ``canary_reject``
        was already logged by the gate.
        """
        if outcome.status == "failed":
            event = self.events.record("error", stage=stage,
                                       error=repr(outcome.error))
            self._note_failure(stage)
            return event
        event = None
        if outcome.status == "swapped":
            version = (outcome.entry.version if outcome.entry is not None
                       else self.service.model_version)
            if stage == "refresh":
                event = self.events.record(
                    "refresh", reasons=details["reasons"], version=version,
                    data_version=outcome.data_version,
                    seconds=details["seconds"])
            else:
                event = self.events.record(
                    "cold_train", status="swapped", version=version,
                    data_version=outcome.data_version)
            self._after_tune()
            if self._breaker_state != "closed":
                self._set_breaker("closed")
            self._consecutive_failures = 0
        elif stage == "cold_train":
            event = self.events.record("cold_train", status=outcome.status,
                                       data_version=outcome.data_version)
        elif outcome.status == "noop":
            # The accuracy triggers can fire with zero staleness; only a
            # real swap earns a refresh event, a rebase and retention.
            event = self.events.record("decision", action="refresh_noop",
                                       reasons=details["reasons"])
        self._park("cooldown", self.policy.cooldown_seconds)
        return event

    def _after_tune(self) -> None:
        """Post-swap hygiene: rebase drift baseline, apply retention."""
        try:
            baseline = self.monitor.rebase()
        except Exception as error:  # noqa: BLE001 — log, keep serving
            self.events.record("error", stage="rebase", error=repr(error))
            baseline = None
        report = self.retention.apply(self.service)
        self.events.record(
            "retention",
            pruned_model_versions=list(report.pruned_model_versions),
            trimmed_store_versions=report.trimmed_store_versions,
            baseline_qerror=baseline)

    def _canary_gate(self, stage: str):
        """Build the shadow-evaluation gate for one tune attempt.

        Returns ``None`` when canary gating is disabled
        (``canary_margin=None``).  The gate records a ``canary_pass`` /
        ``canary_reject`` event per verdict.  An evaluation *error* fails
        open — a broken canary must not be able to park refreshes forever —
        but is logged.
        """
        shadow = getattr(self, "shadow", None)
        if shadow is None or not shadow.enabled:
            return None

        def gate(candidate) -> bool:
            try:
                report = shadow.evaluate(candidate)
            except Exception as error:  # noqa: BLE001 — fail open
                self.events.record("error", stage=f"canary_{stage}",
                                   error=repr(error))
                return True
            self.events.record(
                "canary_pass" if report.passed else "canary_reject",
                stage=stage, reason=report.reason,
                candidate_median=report.candidate_median,
                incumbent_median=report.incumbent_median,
                margin=report.margin, probe_size=report.probe_size)
            if (report.candidate_median is not None
                    and report.incumbent_median):
                self._canary_gauge.set(report.candidate_median
                                       / report.incumbent_median)
            return report.passed

        return gate

    def _make_throttle(self):
        """Backpressure hook for the tuning loop: yield every K steps.

        Doubles as the trainer's fault seam: an installed
        :class:`~repro.lifecycle.FaultInjector` fires at ``trainer.step``
        on every optimiser step, inside the training loop but outside the
        serving path.
        """
        policy = self.policy
        injector = getattr(self, "fault_injector", None)
        if policy.tune_yield_seconds <= 0 and injector is None:
            return None
        steps = 0

        def throttle() -> None:
            nonlocal steps
            steps += 1
            if injector is not None:
                injector.fire("trainer.step", step=steps)
            if (policy.tune_yield_seconds > 0
                    and steps % policy.tune_slice_batches == 0):
                time.sleep(policy.tune_yield_seconds)

        return throttle

    # ------------------------------------------------------------------
    # Introspection / synchronisation
    # ------------------------------------------------------------------
    @property
    def cold_train_in_flight(self) -> bool:
        return self._cold_train is not None and not self._cold_train.done()

    def quiesce(self, timeout: float | None = None) -> bool:
        """Wait for any in-flight cold train and settle its outcome.

        Returns ``True`` when no escalation is pending afterwards.  Used by
        tests and soak drivers that need a deterministic "controller is
        idle" point.
        """
        pending = self._cold_train
        if pending is None:
            return True
        if not wait([pending], timeout).done:
            return False
        self._finalise_cold_train()
        return True
