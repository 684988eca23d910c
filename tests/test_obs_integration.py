"""Integration tests of the observability layer across serving + lifecycle.

Everything that spans more than one module lives here: the ServiceStats
ring-buffer snapshot under concurrent recorders (the tear-regression test),
EventLog overflow accounting, the shared-registry topology (service,
scheduler and event log landing in one exposition), the file exporter, and
the blocking soak smoke test the CI ``tests`` job runs — a short soak must
leave non-zero ``repro_requests_total`` and a parseable exposition.
"""

import threading

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
from repro.eval import run_soak
from repro.lifecycle import DriftMonitor, EventLog, RefreshScheduler
from repro.obs import MetricsExporter, MetricsRegistry, parse_exposition
from repro.serving import EstimationService, ServiceStats
from repro.workload import make_random_workload


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(0)
    return Table.from_dict("tiny", {
        "age": rng.integers(18, 66, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })


def make_service(table, **config_kwargs) -> EstimationService:
    estimator = DuetEstimator(
        DuetModel(table, DuetConfig(hidden_sizes=(16, 16), seed=0)))
    return EstimationService(estimator, config=ServingConfig(**config_kwargs))


# ----------------------------------------------------------------------
# ServiceStats on the registry
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_counters_land_in_the_registry(self):
        stats = ServiceStats()
        stats.record_request(0.002, cache_hit=True)
        stats.record_request(0.004, cache_hit=False)
        stats.record_batch(8)
        snapshot = stats.snapshot()
        assert snapshot.requests == 2 and snapshot.cache_hits == 1
        assert snapshot.num_batches == 1 and snapshot.batched_requests == 8
        parsed = parse_exposition(stats.metrics.exposition())
        assert parsed[("repro_requests_total", (("cache", "hit"),))] == 1.0
        assert parsed[("repro_requests_total", (("cache", "miss"),))] == 1.0
        assert parsed[("repro_request_latency_seconds_count", ())] == 2.0
        assert parsed[("repro_batches_total", ())] == 1.0

    def test_latency_window_bounds_percentile_memory(self):
        stats = ServiceStats(latency_window=4)
        for latency in (0.1, 0.1, 0.1, 0.1, 0.001, 0.001, 0.001, 0.001):
            stats.record_request(latency, cache_hit=False)
        snapshot = stats.snapshot()
        # Only the last four samples remain in the percentile window...
        assert snapshot.p50_ms == pytest.approx(1.0)
        # ...but the registry counters keep the full total.
        assert snapshot.requests == 8

    def test_reset_keeps_shared_instruments_valid(self):
        registry = MetricsRegistry()
        stats = ServiceStats(metrics=registry)
        stats.record_request(0.002, cache_hit=False)
        stats.record_batch(4)
        # An exporter-style reader binds the counter before the reset.
        counter = registry.get("repro_requests_total")
        stats.reset()
        assert stats.snapshot().requests == 0
        stats.record_request(0.001, cache_hit=False)
        assert counter.total() == 1.0  # pre-reset binding still live

    def test_concurrent_record_and_snapshot_never_tear(self):
        """Regression: snapshots race recorders without errors or bad counts.

        The old implementation copied a deque under the recorders' lock and
        could raise (or stall every recorder) when percentile math ran under
        contention; the ring-buffer version copies a dense array under the
        lock and does the math outside it.
        """
        stats = ServiceStats(latency_window=256)
        threads_count, per_thread = 8, 2_000
        barrier = threading.Barrier(threads_count + 1)
        failures: list[Exception] = []

        def recorder(index: int) -> None:
            barrier.wait()
            for step in range(per_thread):
                stats.record_request(1e-4 * (1 + index), cache_hit=step % 2 == 0)
                if step % 100 == 0:
                    stats.record_batch(4)

        def snapshotter() -> None:
            barrier.wait()
            try:
                for _ in range(300):
                    snapshot = stats.snapshot()
                    # Mid-flight invariants: never negative, never torn below
                    # the parts that make them up.
                    assert snapshot.requests == (snapshot.cache_hits
                                                 + snapshot.cache_misses)
                    assert 0.0 <= snapshot.cache_hit_rate <= 1.0
                    assert snapshot.p50_ms >= 0.0
            except Exception as error:  # noqa: BLE001 — surface in main thread
                failures.append(error)

        threads = [threading.Thread(target=recorder, args=(index,))
                   for index in range(threads_count)]
        watcher = threading.Thread(target=snapshotter)
        for thread in threads + [watcher]:
            thread.start()
        for thread in threads + [watcher]:
            thread.join()
        assert not failures
        final = stats.snapshot()
        assert final.requests == threads_count * per_thread
        assert final.cache_hits == threads_count * per_thread // 2
        assert final.num_batches == threads_count * (per_thread // 100)


# ----------------------------------------------------------------------
# EventLog overflow accounting
# ----------------------------------------------------------------------
class TestEventLogOverflow:
    def test_overflow_is_counted_not_silent(self):
        log = EventLog(capacity=8)
        for index in range(20):
            log.record("decision", step=index)
        assert len(log) == 8
        assert log.dropped_events == 12
        # Totals survive the window; the retained suffix is the newest 8.
        assert log.count("decision") == 20
        assert [event.details["step"] for event in log.events()] == (
            list(range(12, 20)))

    def test_no_overflow_no_drops(self):
        log = EventLog(capacity=8)
        for _ in range(8):
            log.record("refresh")
        assert log.dropped_events == 0

    def test_drop_counter_is_exported(self):
        registry = MetricsRegistry()
        log = EventLog(capacity=2, metrics=registry)
        for _ in range(5):
            log.record("decision")
        parsed = parse_exposition(registry.exposition())
        assert parsed[("repro_lifecycle_events_total",
                       (("kind", "decision"),))] == 5.0
        assert parsed[("repro_lifecycle_events_dropped_total", ())] == 3.0


# ----------------------------------------------------------------------
# Shared-registry topology
# ----------------------------------------------------------------------
class TestSharedRegistry:
    def test_scheduler_joins_the_service_registry(self, table):
        store = ColumnStore.from_table(table)
        snapshot = store.snapshot()
        estimator = DuetEstimator(
            DuetModel(snapshot, DuetConfig(hidden_sizes=(16, 16), seed=0)))
        with EstimationService(estimator, store=store) as service:
            scheduler = RefreshScheduler(
                service, LifecyclePolicy(poll_interval_seconds=60.0))
            assert scheduler.metrics is service.metrics
            assert scheduler.events.metrics is service.metrics
            # Serving counters and lifecycle gauges in one exposition.
            service.estimate(make_random_workload(
                snapshot, num_queries=1, seed=3).queries[0])
            text = service.metrics.exposition()
            assert "repro_requests_total" in text
            assert "repro_lifecycle_breaker_state 0.0" in text
            parsed = parse_exposition(text)
            assert parsed[("repro_store_physical_rows", ())] == (
                float(snapshot.num_rows))
            assert parsed[("repro_store_tombstone_fraction", ())] == 0.0

    def test_breaker_transitions_flip_the_gauge_in_the_timeline(
            self, tmp_path):
        """Acceptance: breaker state changes are visible as gauge flips in
        the exported timeline (0 closed / 1 half-open / 2 open), not only
        as events in the log."""
        from repro.serving import ModelRegistry

        rng = np.random.default_rng(0)
        store = ColumnStore.from_table(Table.from_dict("lifecycle", {
            "age": rng.integers(18, 60, size=400),
            "score": rng.integers(0, 10, size=400),
        }))
        base = store.snapshot()
        config = DuetConfig(hidden_sizes=(16, 16), epochs=1, batch_size=128,
                            expand_coefficient=1, lambda_query=0.0, seed=0)
        model = DuetModel(base, config)
        DuetTrainer(model, base, config=config).train(1)
        registry = ModelRegistry(tmp_path / "registry")
        registry.save(model, dataset="lifecycle")
        policy = LifecyclePolicy(
            poll_interval_seconds=0.02, max_stale_rows=50,
            probe_sample_rate=1.0, min_probe_queries=5, debounce_polls=1,
            cooldown_seconds=0.0, refresh_epochs=1, cold_train_epochs=1,
            tune_yield_seconds=0.0, failure_backoff_seconds=0.0,
            breaker_failure_threshold=2, breaker_cooldown_seconds=60.0)
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            monitor = DriftMonitor(service, policy)
            monitor.seed_probes(make_random_workload(
                base, num_queries=10, seed=17, label=False).queries)
            scheduler = RefreshScheduler(service, policy, monitor=monitor)
            exporter = MetricsExporter(service.metrics,
                                       tmp_path / "timeline.jsonl",
                                       interval_seconds=3600.0)

            def fail(*args, **kwargs):
                raise RuntimeError("trainer down")

            real_tune, service.tune = service.tune, fail
            snapshot = base
            store.append({name: snapshot.column(name).distinct_values[
                rng.integers(0, snapshot.column(name).num_distinct, size=80)]
                for name in snapshot.column_names})
            exporter.write_snapshot()             # closed
            scheduler.poll_once()                 # failure 1/2: still closed
            exporter.write_snapshot()
            scheduler.poll_once()                 # failure 2/2: opens
            exporter.write_snapshot()
            scheduler._next_tune_at -= 61.0       # cooldown -> half-open
            scheduler.poll_once()                 # trial fails -> re-opens
            exporter.write_snapshot()
            scheduler._next_tune_at -= 61.0
            service.tune = real_tune
            scheduler.poll_once()                 # trial succeeds -> closes
            exporter.write_snapshot()

            records = MetricsExporter.read_timeline(tmp_path / "timeline.jsonl")
            series = MetricsExporter.series(records,
                                            "repro_lifecycle_breaker_state")
            assert [state for _, state in series] == [0.0, 0.0, 2.0, 2.0, 0.0]
            # The half-open trials happen inside a poll, so the live gauge
            # (not just the log) must have flipped through 1.0 as well:
            assert [event.details["state"]
                    for event in scheduler.events.events("breaker")] == [
                "open", "half_open", "open", "half_open", "closed"]

    def test_poll_durations_reach_the_histogram(self, table):
        store = ColumnStore.from_table(table)
        snapshot = store.snapshot()
        estimator = DuetEstimator(
            DuetModel(snapshot, DuetConfig(hidden_sizes=(16, 16), seed=0)))
        with EstimationService(estimator, store=store) as service:
            scheduler = RefreshScheduler(
                service, LifecyclePolicy(poll_interval_seconds=60.0))
            scheduler.poll_once()
            scheduler.poll_once()
            parsed = parse_exposition(service.metrics.exposition())
            assert parsed[("repro_lifecycle_poll_seconds_count", ())] == 2.0


# ----------------------------------------------------------------------
# File exporter
# ----------------------------------------------------------------------
class TestMetricsExporter:
    def test_snapshot_timeline_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total").labels()
        exporter = MetricsExporter(registry, tmp_path / "metrics.jsonl",
                                   interval_seconds=60.0)
        counter.inc()
        exporter.write_snapshot()
        counter.inc(2)
        exporter.write_snapshot()
        records = MetricsExporter.read_timeline(tmp_path / "metrics.jsonl")
        assert len(records) == 2
        series = MetricsExporter.series(records, "repro_things_total")
        assert [value for _, value in series] == [1.0, 3.0]
        timestamps = [t for t, _ in series]
        assert timestamps == sorted(timestamps)

    def test_stop_always_flushes_a_final_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_things_total").labels().inc()
        path = tmp_path / "metrics.jsonl"
        # Interval far longer than the run: only stop() writes.
        with MetricsExporter(registry, path, interval_seconds=3600.0):
            pass
        records = MetricsExporter.read_timeline(path)
        assert len(records) == 1
        assert exporter_value(records[0], "repro_things_total") == 1.0

    def test_background_loop_appends_periodically(self, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "metrics.jsonl"
        exporter = MetricsExporter(registry, path, interval_seconds=0.05)
        exporter.start()
        deadline = threading.Event()
        deadline.wait(0.3)
        exporter.stop()
        assert exporter.snapshots_written >= 2
        assert len(MetricsExporter.read_timeline(path)) == (
            exporter.snapshots_written)


def exporter_value(record: dict, metric: str) -> float:
    return record["metrics"][metric]["samples"][0]["value"]


# ----------------------------------------------------------------------
# Blocking soak smoke test (CI gate)
# ----------------------------------------------------------------------
class TestSoakSmoke:
    def test_short_soak_leaves_metrics_and_valid_exposition(self, table,
                                                            tmp_path):
        """A one-second soak must produce scrape-able observability output.

        This is the blocking CI smoke test: traffic flowed
        (``repro_requests_total`` > 0), the exposition parses, the JSON
        snapshot agrees with it, and the exporter left a readable timeline.
        """
        workload = make_random_workload(table, num_queries=30, seed=5,
                                        label=False)
        path = tmp_path / "soak_metrics.jsonl"
        with make_service(table) as service:
            exporter = MetricsExporter(service.metrics, path,
                                       interval_seconds=0.2)
            report = run_soak(service, workload, duration_seconds=1.0,
                              concurrency=2, exporter=exporter, seed=0)
            text = service.metrics.exposition()
            parsed = parse_exposition(text)

        assert report.errors == 0 and report.num_requests > 0
        total = sum(value for (name, _), value in parsed.items()
                    if name == "repro_requests_total")
        assert total == report.num_requests > 0
        assert parsed[("repro_request_latency_seconds_count", ())] == (
            report.num_requests)
        records = MetricsExporter.read_timeline(path)
        assert records  # the exporter flushed at least the final snapshot
        final = MetricsExporter.series(records, "repro_batches_total")[-1]
        assert final[1] > 0
