"""Tests of the autonomous lifecycle controller (:mod:`repro.lifecycle`).

Covers the event log, the drift monitor (probe sampling, incremental
relabeling through appends *and* deletes, threshold/drift decisions), the
refresh scheduler (debounce, cooldown, backpressure, error containment, the
daemon loop), cold-train escalation on domain growth, tombstone-triggered
compaction with its own escalation, retention, and the end-to-end
acceptance paths: skewed appends or skewed deletes trigger an automatic
refresh that restores accuracy with zero failed requests, and domain
growth escalates to a cold train that swaps without raising to callers.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DuetConfig,
    DuetEstimator,
    DuetModel,
    DuetTrainer,
    LifecyclePolicy,
    ServingConfig,
)
from repro.data import ColumnStore, Table
from repro.eval import qerror
from repro.lifecycle import (
    DriftMonitor,
    EventLog,
    RefreshScheduler,
    RetentionPolicy,
    cold_train_and_swap,
)
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload, true_cardinalities

CONFIG = DuetConfig(hidden_sizes=(16, 16), epochs=1, batch_size=128,
                    expand_coefficient=1, lambda_query=0.0, seed=0)

#: a policy tight enough that single test appends cross its thresholds, with
#: debounce/cooldown disabled so poll_once() acts immediately
EAGER = LifecyclePolicy(poll_interval_seconds=0.02, max_stale_rows=50,
                        max_stale_fraction=0.1, probe_sample_rate=1.0,
                        min_probe_queries=5, debounce_polls=1,
                        cooldown_seconds=0.0, refresh_epochs=1,
                        cold_train_epochs=1, keep_model_versions=2,
                        tune_yield_seconds=0.0)


@pytest.fixture()
def store() -> ColumnStore:
    rng = np.random.default_rng(0)
    table = Table.from_dict("lifecycle", {
        "age": rng.integers(18, 60, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })
    return ColumnStore.from_table(table)


def _make_service(store, tmp_path, config=CONFIG, serving=None):
    base = store.snapshot()
    model = DuetModel(base, config)
    DuetTrainer(model, base, config=config).train(1)
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="lifecycle")
    return EstimationService.from_registry(
        registry, "lifecycle", store=store,
        config=serving or ServingConfig(max_wait_ms=0.2))


def _append_in_domain(store: ColumnStore, count: int, seed: int):
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    return store.append({
        name: snapshot.column(name).distinct_values[
            rng.integers(0, snapshot.column(name).num_distinct, size=count)]
        for name in snapshot.column_names
    })


def _append_growing(store: ColumnStore, count: int, seed: int):
    """Append rows containing values outside every current domain."""
    rng = np.random.default_rng(seed)
    return store.append({
        "age": rng.integers(200, 260, size=count),
        "city": rng.choice(["zrh", "vie"], size=count),
        "score": rng.integers(50, 60, size=count),
    })


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_record_and_filter(self):
        log = EventLog()
        log.record("decision", action="hold")
        log.record("refresh", version="v2")
        log.record("decision", action="tune")
        assert len(log) == 3
        assert [event.kind for event in log.events()] == [
            "decision", "refresh", "decision"]
        assert [event.details["action"] for event in log.events("decision")] == [
            "hold", "tune"]
        assert log.last().details["action"] == "tune"
        assert log.last("refresh").details["version"] == "v2"
        assert log.last("cold_train") is None

    def test_capacity_bounds_events_but_not_counts(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.record("decision", index=index)
        assert len(log) == 4
        assert [event.details["index"] for event in log.events()] == [6, 7, 8, 9]
        assert log.count("decision") == 10
        assert log.counts() == {"decision": 10}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
class TestLifecyclePolicy:
    @pytest.mark.parametrize("overrides", [
        {"poll_interval_seconds": 0.0},
        {"max_stale_rows": 0},
        {"max_stale_fraction": -0.5},
        {"probe_window": 0},
        {"probe_sample_rate": 1.5},
        {"min_probe_queries": 0},
        {"qerror_median_threshold": 0.5},
        {"qerror_drift_factor": 1.0},
        {"debounce_polls": 0},
        {"cooldown_seconds": -1.0},
        {"refresh_epochs": 0},
        {"cold_train_epochs": 0},
        {"tune_slice_batches": 0},
        {"tune_yield_seconds": -0.1},
        {"keep_model_versions": 0},
        {"canary_margin": 0.0},
        {"canary_margin": -1.0},
        {"failure_backoff_seconds": -1.0},
        {"failure_backoff_seconds": 10.0, "failure_backoff_max_seconds": 1.0},
        {"breaker_failure_threshold": 0},
        {"breaker_cooldown_seconds": -1.0},
    ])
    def test_rejects_invalid_knobs(self, overrides):
        with pytest.raises(ValueError):
            LifecyclePolicy(**overrides)

    def test_triggers_can_be_disabled(self):
        policy = LifecyclePolicy(max_stale_rows=None, max_stale_fraction=None,
                                 qerror_median_threshold=None,
                                 qerror_drift_factor=None,
                                 keep_model_versions=None)
        assert policy.max_stale_rows is None


# ----------------------------------------------------------------------
# Drift monitor
# ----------------------------------------------------------------------
class TestDriftMonitor:
    def test_requires_a_live_store(self):
        estimator = DuetEstimator(DuetModel(
            Table.from_dict("static", {"a": [1, 2, 3]}), CONFIG))
        with EstimationService(estimator) as service:
            with pytest.raises(ValueError, match="live ColumnStore"):
                DriftMonitor(service)

    def test_observer_samples_served_queries(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, EAGER).attach()
            workload = make_random_workload(store.snapshot(), num_queries=8,
                                            seed=5, label=False)
            for query in workload.queries:
                service.estimate(query)
            assert len(monitor.probe_queries) == 8  # sample rate 1.0
            monitor.detach()
            service.estimate(workload.queries[0])
            assert len(monitor.probe_queries) == 8

    def test_evaluation_stays_out_of_the_request_path(self, store, tmp_path):
        """Probe evaluation must not feed the probe window, inflate the
        request counters, or write into the estimate cache."""
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, EAGER).attach()
            workload = make_random_workload(store.snapshot(), num_queries=10,
                                            seed=5, label=False)
            monitor.seed_probes(workload.queries)
            before_probes = monitor.probe_queries
            before_stats = service.snapshot()
            metrics = monitor.evaluate()
            assert metrics.median_qerror is not None
            assert monitor.probe_queries == before_probes
            after_stats = service.snapshot()
            assert after_stats.requests == before_stats.requests
            assert after_stats.num_batches == before_stats.num_batches
            assert len(service.cache) == 0

    def test_incremental_labels_match_full_rescan(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, EAGER)
            workload = make_random_workload(store.snapshot(), num_queries=30,
                                            seed=9, label=False)
            monitor.seed_probes(workload.queries)
            probes = monitor.probe_queries
            first = monitor._labeled_counts(probes)
            np.testing.assert_array_equal(
                first, true_cardinalities(store.snapshot(), list(probes)))
            # In-domain append: labels roll forward through the delta.
            _append_in_domain(store, 90, seed=3)
            rolled = monitor._labeled_counts(probes)
            np.testing.assert_array_equal(
                rolled, true_cardinalities(store.snapshot(), list(probes)))
            # Domain growth: raw-value comparison still additive.
            _append_growing(store, 25, seed=4)
            grown = monitor._labeled_counts(probes)
            np.testing.assert_array_equal(
                grown, true_cardinalities(store.snapshot(), list(probes)))

    def test_incremental_labels_roll_through_deletes(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, EAGER)
            workload = make_random_workload(store.snapshot(), num_queries=30,
                                            seed=9, label=False)
            monitor.seed_probes(workload.queries)
            probes = monitor.probe_queries
            monitor._labeled_counts(probes)      # pin labels at this version
            store.delete(np.arange(0, 120, 2))   # tombstone 60 base rows
            rolled = monitor._labeled_counts(probes)
            np.testing.assert_array_equal(
                rolled, true_cardinalities(store.snapshot(), list(probes)))
            # Mixed churn rolls forward too (append + another delete).
            _append_in_domain(store, 50, seed=3)
            store.delete(np.arange(0, 40))
            np.testing.assert_array_equal(
                monitor._labeled_counts(probes),
                true_cardinalities(store.snapshot(), list(probes)))

    def test_pure_delete_triggers_staleness(self, store, tmp_path):
        policy = LifecyclePolicy(max_stale_rows=100, max_stale_fraction=0.2,
                                 qerror_median_threshold=None,
                                 qerror_drift_factor=None)
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, policy)
            assert not monitor.decide()
            store.delete(np.arange(50))          # 50/400 < 0.2, < 100 rows
            assert not monitor.decide()
            store.delete(np.arange(50))          # 100 rows churned
            decision = monitor.decide()
            assert decision.refresh
            assert decision.reasons == ("stale_rows", "stale_fraction")
            assert decision.metrics.stale_rows == 100
            assert decision.metrics.trained_rows == 400  # live rows at v1

    def test_changed_probe_set_relabels_fully(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, EAGER)
            workload = make_random_workload(store.snapshot(), num_queries=12,
                                            seed=9, label=False)
            monitor.seed_probes(workload.queries[:6])
            monitor._labeled_counts(monitor.probe_queries)
            monitor.seed_probes(workload.queries[6:])
            probes = monitor.probe_queries
            np.testing.assert_array_equal(
                monitor._labeled_counts(probes),
                true_cardinalities(store.snapshot(), list(probes)))

    def test_staleness_triggers(self, store, tmp_path):
        policy = LifecyclePolicy(max_stale_rows=100, max_stale_fraction=0.2,
                                 qerror_median_threshold=None,
                                 qerror_drift_factor=None)
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, policy)
            assert not monitor.decide()
            _append_in_domain(store, 79, seed=1)   # 79/400 < 0.2, < 100 rows
            assert not monitor.decide()
            _append_in_domain(store, 21, seed=2)   # 100 rows appended
            decision = monitor.decide()
            assert decision.refresh
            assert decision.reasons == ("stale_rows", "stale_fraction")
            assert decision.metrics.stale_rows == 100
            assert decision.metrics.trained_rows == 400

    def test_qerror_threshold_trigger_needs_enough_probes(self, store, tmp_path):
        policy = LifecyclePolicy(max_stale_rows=None, max_stale_fraction=None,
                                 qerror_median_threshold=1.0,  # always fires
                                 qerror_drift_factor=None, min_probe_queries=5)
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, policy)
            workload = make_random_workload(store.snapshot(), num_queries=8,
                                            seed=2, label=False)
            monitor.seed_probes(workload.queries[:4])
            decision = monitor.decide()  # probe too small: trigger silent
            assert not decision and decision.metrics.median_qerror is None
            monitor.seed_probes(workload.queries[4:])
            decision = monitor.decide()
            assert decision.refresh and decision.reasons == ("qerror_threshold",)
            assert decision.metrics.median_qerror >= 1.0

    def test_drift_factor_measures_against_baseline(self, store, tmp_path, monkeypatch):
        policy = LifecyclePolicy(max_stale_rows=None, max_stale_fraction=None,
                                 qerror_median_threshold=None,
                                 qerror_drift_factor=2.0)
        with _make_service(store, tmp_path) as service:
            monitor = DriftMonitor(service, policy)
            medians = iter([1.2, 1.8, 3.0])
            monkeypatch.setattr(monitor, "_probe_median",
                                lambda probes: next(medians))
            assert monitor.rebase() == 1.2          # baseline recorded
            assert not monitor.decide()             # 1.8 < 2 * 1.2
            decision = monitor.decide()             # 3.0 >= 2 * 1.2
            assert decision.refresh and decision.reasons == ("qerror_drift",)


# ----------------------------------------------------------------------
# Scheduler mechanics
# ----------------------------------------------------------------------
class TestRefreshScheduler:
    def test_poll_refreshes_and_records(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            assert scheduler.poll_once().details["action"] == "hold"
            _append_in_domain(store, 120, seed=7)
            event = scheduler.poll_once()
            assert event.details["action"] == "tune"
            assert service.staleness() == 0
            refresh = scheduler.events.last("refresh")
            assert refresh.details["version"] == "v2"
            assert service.model_version == "v2"
            assert scheduler.events.count("retention") == 1

    def test_debounce_requires_consecutive_hits(self, store, tmp_path):
        policy = dataclasses.replace(EAGER, debounce_polls=2)
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy)
            _append_in_domain(store, 120, seed=7)
            assert scheduler.poll_once().details["action"] == "debounce"
            assert service.staleness() == 120  # not tuned yet
            assert scheduler.poll_once().details["action"] == "tune"
            assert service.staleness() == 0
            # A negative poll resets the streak.
            _append_in_domain(store, 120, seed=8)
            assert scheduler.poll_once().details["action"] == "debounce"
            scheduler.service.refresh()  # absorb out-of-band
            assert scheduler.poll_once().details["action"] == "hold"
            _append_in_domain(store, 120, seed=9)
            assert scheduler.poll_once().details["action"] == "debounce"

    def test_cooldown_blocks_back_to_back_tunes(self, store, tmp_path):
        policy = dataclasses.replace(EAGER, cooldown_seconds=120.0)
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy)
            _append_in_domain(store, 120, seed=7)
            assert scheduler.poll_once().details["action"] == "tune"
            _append_in_domain(store, 120, seed=8)
            assert scheduler.poll_once().details["action"] == "cooldown"
            assert service.staleness() == 120
            scheduler._next_tune_at -= 121.0
            assert scheduler.poll_once().details["action"] == "tune"
            assert service.staleness() == 0

    def test_accuracy_trigger_without_staleness_noops_cleanly(self, store,
                                                              tmp_path):
        """An always-firing accuracy trigger with zero staleness must not
        fabricate refresh events, rebase the baseline, or run retention."""
        policy = dataclasses.replace(EAGER, max_stale_rows=None,
                                     max_stale_fraction=None,
                                     qerror_median_threshold=1.0)
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy)
            workload = make_random_workload(store.snapshot(), num_queries=10,
                                            seed=2, label=False)
            scheduler.monitor.seed_probes(workload.queries)
            event = scheduler.poll_once()
            assert event.details["action"] == "tune"
            assert scheduler.events.count("refresh") == 0
            assert scheduler.events.count("retention") == 0
            assert scheduler.events.last("decision").details["action"] == "refresh_noop"
            assert service.model_version == "v1"

    def test_refresh_failure_is_contained(self, store, tmp_path, monkeypatch):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            _append_in_domain(store, 120, seed=7)
            monkeypatch.setattr(service, "tune",
                                lambda **kwargs: (_ for _ in ()).throw(
                                    RuntimeError("tune exploded")))
            scheduler.poll_once()  # must not raise
            error = scheduler.events.last("error")
            assert error.details["stage"] == "refresh"
            assert "tune exploded" in error.details["error"]

    def test_retention_prunes_registry_and_trims_store(self, store, tmp_path):
        policy = dataclasses.replace(EAGER, keep_model_versions=1)
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy)
            for seed in (11, 12):
                _append_in_domain(store, 120, seed=seed)
                assert scheduler.poll_once().details["action"] == "tune"
            # keep=1: only the served version remains.
            assert service.registry.versions("lifecycle") == [service.model_version]
            retention = scheduler.events.last("retention")
            assert retention.details["pruned_model_versions"]

    def test_daemon_loop_refreshes_autonomously(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            with RefreshScheduler(service, EAGER) as scheduler:
                assert scheduler.running
                _append_in_domain(store, 120, seed=7)
                deadline = time.time() + 30.0
                while service.staleness() and time.time() < deadline:
                    time.sleep(0.02)
                assert service.staleness() == 0
                assert scheduler.events.count("refresh") >= 1
            assert not scheduler.running

    def test_backpressure_throttle_counts_slices(self):
        policy = LifecyclePolicy(tune_slice_batches=3, tune_yield_seconds=0.001)
        scheduler = RefreshScheduler.__new__(RefreshScheduler)
        scheduler.policy = policy
        throttle = scheduler._make_throttle()
        started = time.perf_counter()
        for _ in range(6):
            throttle()
        assert time.perf_counter() - started >= 0.002  # two yields
        assert RefreshScheduler._make_throttle(scheduler) is not throttle
        no_yield = LifecyclePolicy(tune_yield_seconds=0.0)
        scheduler.policy = no_yield
        assert scheduler._make_throttle() is None


# ----------------------------------------------------------------------
# Cold-train escalation
# ----------------------------------------------------------------------
class TestColdTrainEscalation:
    def test_synchronous_cold_train_swaps(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            workload = make_random_workload(store.snapshot(), num_queries=10,
                                            seed=3, label=False)
            _append_growing(store, 30, seed=5)
            outcome = cold_train_and_swap(service, epochs=1)
            assert outcome.status == "swapped"
            assert service.staleness() == 0
            assert service.model_version == outcome.entry.version
            entry = service.registry.entry("lifecycle")
            assert entry.metadata["cold_trained"] is True
            assert entry.metadata["escalated_from"] == "v1"
            # The swapped model carries the grown domains and keeps serving.
            assert service.table.column("city").num_distinct == 6
            assert np.isfinite(service.estimate_batch(workload.queries)).all()

    def test_cold_train_failure_is_reported_not_raised(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            service.estimator.model = None  # no config to clone
            outcome = cold_train_and_swap(service, epochs=1)
            assert outcome.status == "failed"
            assert isinstance(outcome.error, RuntimeError)

    def test_scheduler_escalates_on_domain_growth(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            workload = make_random_workload(store.snapshot(), num_queries=10,
                                            seed=3, label=False)
            _append_growing(store, 100, seed=5)
            assert scheduler.poll_once().details["action"] == "tune"
            started = scheduler.events.last("cold_train")
            assert started.details["status"] == "started"
            assert set(started.details["grown_columns"]) == {
                "age", "city", "score"}
            # While the cold train runs, serving never raises and further
            # polls only report (at most one tune in flight).
            assert np.isfinite(service.estimate_batch(workload.queries)).all()
            assert scheduler.quiesce(timeout=60.0)
            swapped = scheduler.events.last("cold_train")
            assert swapped.details["status"] == "swapped"
            assert service.staleness() == 0
            assert service.model_version == swapped.details["version"]
            assert np.isfinite(service.estimate_batch(workload.queries)).all()

    def test_escalation_disabled_surfaces_error_event(self, store, tmp_path):
        policy = dataclasses.replace(EAGER, cold_train_on_growth=False)
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy)
            _append_growing(store, 100, seed=5)
            scheduler.poll_once()  # must not raise
            assert scheduler.events.count("cold_train") == 0
            assert scheduler.events.last("error").details["stage"] == "refresh"


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_scheduler_compacts_and_cold_trains(self, store, tmp_path):
        """Crossing the tombstone threshold fires compaction + escalation:
        chunks rewritten, cold train swaps in the background, nothing
        raises into serving."""
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)  # threshold 0.30
            workload = make_random_workload(store.snapshot(), num_queries=10,
                                            seed=3, label=False)
            store.delete(np.arange(200))          # 200/400 = 0.5 dead
            event = scheduler.poll_once()
            assert event.kind == "compaction"
            assert event.details["dropped_rows"] == 200
            assert event.details["tombstone_fraction"] == pytest.approx(0.5)
            assert store.tombstone_fraction == 0.0
            assert store.physical_rows == store.num_rows == 200
            started = scheduler.events.last("cold_train")
            assert started.details == {"status": "started",
                                       "reason": "compaction"}
            # Serving keeps answering while the cold train runs.
            assert np.isfinite(service.estimate_batch(workload.queries)).all()
            assert scheduler.quiesce(timeout=60.0)
            swapped = scheduler.events.last("cold_train")
            assert swapped.details["status"] == "swapped"
            assert service.staleness() == 0
            assert service.data_version == store.data_version
            assert service.table.num_rows == 200
            assert np.isfinite(service.estimate_batch(workload.queries)).all()

    def test_compaction_respects_threshold_and_disable(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            store.delete(np.arange(80))           # 0.2 < 0.3: no compaction
            scheduler.poll_once()
            assert scheduler.events.count("compaction") == 0
            assert store.physical_rows == 400     # untouched
        disabled = dataclasses.replace(EAGER, compact_tombstone_fraction=None)
        with _make_service(store, tmp_path / "second") as service:
            scheduler = RefreshScheduler(service, disabled)
            store.delete(np.arange(0, store.num_rows, 2))
            scheduler.poll_once()
            assert scheduler.events.count("compaction") == 0

    def test_compaction_failure_is_contained(self, store, tmp_path,
                                             monkeypatch):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            store.delete(np.arange(200))
            monkeypatch.setattr(store, "compact_measured",
                                lambda: (_ for _ in ()).throw(
                                    RuntimeError("rewrite exploded")))
            event = scheduler.poll_once()        # must not raise
            assert event.kind == "error"
            assert event.details["stage"] == "compaction"
            assert scheduler.events.count("cold_train") == 0


# ----------------------------------------------------------------------
# Retention policy unit
# ----------------------------------------------------------------------
class TestRetentionPolicy:
    def test_apply_prunes_and_trims(self, store, tmp_path):
        policy = dataclasses.replace(EAGER, keep_model_versions=1)
        with _make_service(store, tmp_path) as service:
            for seed in (1, 2, 3):
                _append_in_domain(store, 60, seed=seed)
                service.refresh()
            report = RetentionPolicy(policy).apply(service)
            assert report.removed_anything
            assert service.registry.versions("lifecycle") == [service.model_version]
            # Store metadata for versions no snapshot references is gone.
            assert report.trimmed_store_versions > 0

    def test_apply_pins_the_served_data_version_in_the_store(self, store,
                                                             tmp_path):
        """The served data_version is a plain int (registry loads carry no
        Snapshot); retention must pin it so staleness stays exact."""
        import gc

        with _make_service(store, tmp_path) as service:
            assert service.data_version == 1
            _append_in_domain(store, 120, seed=1)   # store moves to v2
            gc.collect()                            # v1 has no live Snapshot
            RetentionPolicy(EAGER).apply(service)
            assert 1 in store.tracked_versions      # pinned by the service
            assert service.staleness() == 120       # still the exact delta

    def test_apply_protects_served_version(self, store, tmp_path):
        policy = dataclasses.replace(EAGER, keep_model_versions=1)
        with _make_service(store, tmp_path) as service:
            _append_in_domain(store, 60, seed=1)
            service.refresh()  # served becomes v2
            # A save the service does not serve becomes the newest version.
            service.registry.save(service.estimator.model, "lifecycle",
                                  version="v9")
            RetentionPolicy(policy).apply(service)
            versions = service.registry.versions("lifecycle")
            assert service.model_version in versions  # never pruned
            assert "v9" in versions                   # manifest latest


# ----------------------------------------------------------------------
# End-to-end acceptance
# ----------------------------------------------------------------------
ACCEPT_CONFIG = DuetConfig(hidden_sizes=(24, 24), epochs=2, batch_size=128,
                           expand_coefficient=2, lambda_query=0.0, seed=0)


def _skewed_append(store: ColumnStore, count: int, seed: int):
    """Append rows drawn only from the top quartile of every domain."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    batch = {}
    for name in snapshot.column_names:
        column = snapshot.column(name)
        start = (3 * column.num_distinct) // 4
        batch[name] = column.distinct_values[
            rng.integers(start, column.num_distinct, size=count)]
    return store.append(batch)


class TestEndToEndAcceptance:
    def test_skewed_appends_trigger_recovering_refresh(self, tmp_path):
        rng = np.random.default_rng(0)
        store = ColumnStore.from_table(Table.from_dict("lifecycle", {
            "age": rng.integers(18, 60, size=500),
            "city": rng.choice(["ams", "ber", "cdg", "dus", "lis"], size=500),
            "score": rng.integers(0, 12, size=500),
        }))
        policy = dataclasses.replace(EAGER, refresh_epochs=2)
        with _make_service(store, tmp_path, config=ACCEPT_CONFIG) as service:
            scheduler = RefreshScheduler(service, policy)

            # Skewed appends past the policy threshold.
            new_snapshot = _skewed_append(store, 250, seed=7)
            workload = make_random_workload(new_snapshot, num_queries=120,
                                            seed=11, label=False)
            truth = true_cardinalities(new_snapshot, workload.queries)

            # Hammer the service from worker threads across the swap: the
            # acceptance bar is zero failed estimate() calls.
            stop = threading.Event()
            failures: list[Exception] = []

            def hammer(seed: int) -> None:
                worker_rng = np.random.default_rng(seed)
                while not stop.is_set():
                    query = workload.queries[
                        int(worker_rng.integers(0, len(workload)))]
                    try:
                        assert service.estimate(query) >= 0.0
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)

            threads = [threading.Thread(target=hammer, args=(index,), daemon=True)
                       for index in range(4)]
            for thread in threads:
                thread.start()
            try:
                event = scheduler.poll_once()  # automatic refresh
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)

            assert event.details["action"] == "tune"
            assert scheduler.events.count("refresh") == 1
            assert failures == []
            assert service.staleness() == 0

            refreshed = float(np.median(qerror(
                service.estimate_batch(workload.queries), truth)))

            # Freshly-tuned baseline: a cold model trained on the new
            # snapshot with the same architecture and budget.
            fresh = DuetModel(new_snapshot, ACCEPT_CONFIG)
            DuetTrainer(fresh, new_snapshot, config=ACCEPT_CONFIG).train()
            baseline = float(np.median(qerror(
                DuetEstimator(fresh).estimate_batch(workload.queries), truth)))
            assert refreshed <= 1.5 * baseline

    def test_skewed_deletes_trigger_recovering_refresh(self, tmp_path):
        """The delete acceptance bar: a skewed delete workload degrades the
        served model, the controller refreshes automatically (negative
        replay over the tombstoned rows), and the refreshed probe median
        lands within 1.5x of a model cold-trained on the live view — with
        zero failed requests across the swap."""
        rng = np.random.default_rng(0)
        store = ColumnStore.from_table(Table.from_dict("lifecycle", {
            "age": rng.integers(18, 60, size=500),
            "city": rng.choice(["ams", "ber", "cdg", "dus", "lis"], size=500),
            "score": rng.integers(0, 12, size=500),
        }))
        # Compaction is exercised separately; here the refresh path must
        # absorb a delete fraction that would otherwise cross its threshold.
        policy = dataclasses.replace(EAGER, refresh_epochs=2,
                                     compact_tombstone_fraction=None)
        with _make_service(store, tmp_path, config=ACCEPT_CONFIG) as service:
            scheduler = RefreshScheduler(service, policy)

            # Skewed deletes: wipe most of the lower half of `age`, shifting
            # the live distribution the served model no longer matches.
            base = store.snapshot()
            ages = base.column("age")
            low_half = ages.distinct_values[ages.codes] < np.median(
                ages.distinct_values)
            victims = np.flatnonzero(low_half)
            new_snapshot = store.delete(
                victims[rng.random(victims.size) < 0.8])
            assert service.staleness() >= policy.max_stale_rows

            workload = make_random_workload(new_snapshot, num_queries=120,
                                            seed=11, label=False)
            truth = true_cardinalities(new_snapshot, workload.queries)

            stop = threading.Event()
            failures: list[Exception] = []

            def hammer(seed: int) -> None:
                worker_rng = np.random.default_rng(seed)
                while not stop.is_set():
                    query = workload.queries[
                        int(worker_rng.integers(0, len(workload)))]
                    try:
                        assert service.estimate(query) >= 0.0
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)

            threads = [threading.Thread(target=hammer, args=(index,), daemon=True)
                       for index in range(4)]
            for thread in threads:
                thread.start()
            try:
                event = scheduler.poll_once()  # automatic refresh
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)

            assert event.details["action"] == "tune"
            assert scheduler.events.count("refresh") == 1
            assert failures == []
            assert service.staleness() == 0
            assert service.table.num_rows == new_snapshot.num_rows

            refreshed = float(np.median(qerror(
                service.estimate_batch(workload.queries), truth)))

            # Baseline: a cold model trained on the live view with the same
            # architecture and budget.
            fresh = DuetModel(new_snapshot, ACCEPT_CONFIG)
            DuetTrainer(fresh, new_snapshot, config=ACCEPT_CONFIG).train()
            baseline = float(np.median(qerror(
                DuetEstimator(fresh).estimate_batch(workload.queries), truth)))
            assert refreshed <= 1.5 * baseline

    def test_domain_growth_escalates_without_raising(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            workload = make_random_workload(store.snapshot(), num_queries=20,
                                            seed=3, label=False)
            final = _append_growing(store, 100, seed=5)

            stop = threading.Event()
            failures: list[Exception] = []

            def hammer(seed: int) -> None:
                worker_rng = np.random.default_rng(seed)
                while not stop.is_set():
                    query = workload.queries[
                        int(worker_rng.integers(0, len(workload)))]
                    try:
                        service.estimate(query)
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)

            threads = [threading.Thread(target=hammer, args=(index,), daemon=True)
                       for index in range(4)]
            for thread in threads:
                thread.start()
            try:
                scheduler.poll_once()             # escalates in background
                assert scheduler.quiesce(timeout=60.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)

            assert failures == []
            assert scheduler.events.last("cold_train").details["status"] == "swapped"
            assert service.staleness() == 0
            assert service.data_version == final.data_version
            assert service.table.num_rows == final.num_rows
