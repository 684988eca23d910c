"""Concurrent refresh()/delete() vs estimate()/estimate_batch() under load.

The swap contract of the serving layer: requests racing a hot-swap never
fail, never see torn state (an estimate produced by half-old, half-new
model attributes), and the cache namespace always matches the served
``(model_version, data_version)`` identity whenever no swap is mid-flight.
Deletes extend the contract: tombstone bitmaps are immutable and replaced
atomically under the store lock, so no estimate is ever served against a
half-applied delete.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (CompiledDuetModel, DuetConfig, DuetModel, DuetTrainer,
                        ServingConfig)
from repro.data import ColumnStore, Table
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload

CONFIG = DuetConfig(hidden_sizes=(16, 16), epochs=1, batch_size=128,
                    expand_coefficient=1, lambda_query=0.0, seed=0)


@pytest.fixture()
def serving_stack(tmp_path):
    rng = np.random.default_rng(2)
    table = Table.from_dict("concurrent", {
        "a": rng.integers(0, 40, size=400),
        "b": rng.choice(["p", "q", "r", "s"], size=400),
    })
    store = ColumnStore.from_table(table)
    base = store.snapshot()
    model = DuetModel(base, CONFIG)
    DuetTrainer(model, base, config=CONFIG).train(1)
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="concurrent")
    service = EstimationService.from_registry(
        registry, "concurrent", store=store,
        config=ServingConfig(max_wait_ms=0.2))
    workload = make_random_workload(base, num_queries=50, seed=7, label=False)
    yield service, store, workload
    service.close()


def _append_in_domain(store, count, seed):
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    return store.append({
        name: snapshot.column(name).distinct_values[
            rng.integers(0, snapshot.column(name).num_distinct, size=count)]
        for name in snapshot.column_names
    })


def _delete_random(store, count, seed):
    """Tombstone ``count`` random live rows (clamped to the live view)."""
    rng = np.random.default_rng(seed)
    live = store.num_rows
    count = min(count, max(live - 1, 0))
    if count == 0:
        return store.snapshot()
    return store.delete(rng.choice(live, size=count, replace=False))


def _probe_while_building(monkeypatch, service, queries) -> list:
    """Probe the service every time a plan is built; return the answers.

    Each entry is the estimate array, or the exception a probe raised:
    what a request arriving mid-swap — after the swap began, before the
    incoming plan exists — would have been served.
    """
    answers = []
    original = CompiledDuetModel.__init__

    def building(plan, *args, **kwargs):
        try:
            answers.append(service.probe_batch(queries))
        except Exception as error:  # noqa: BLE001 — recorded for the assert
            answers.append(error)
        original(plan, *args, **kwargs)

    monkeypatch.setattr(CompiledDuetModel, "__init__", building)
    return answers


class TestSwapAtomicity:
    """Requests mid-swap get the outgoing version's answers, never a mix."""

    def test_refresh_mid_swap_keeps_outgoing_row_count(self, serving_stack,
                                                        monkeypatch):
        service, store, workload = serving_stack
        queries = workload.queries
        outgoing = service.probe_batch(queries)
        _append_in_domain(store, 200, seed=71)  # 400 -> 600 rows
        answers = _probe_while_building(monkeypatch, service, queries)
        assert service.refresh() is not None
        assert answers, "the refresh must build an incoming plan"
        for answer in answers:
            # Not outgoing * 600 / 400: old weights with the old row count.
            np.testing.assert_array_equal(answer, outgoing)
        assert service.table.num_rows == 600
        assert not np.array_equal(service.probe_batch(queries), outgoing)

    def test_grown_domain_swap_never_fails_mid_swap(self, serving_stack,
                                                    monkeypatch):
        service, store, workload = serving_stack
        queries = workload.queries
        outgoing = service.probe_batch(queries)
        rng = np.random.default_rng(72)
        grown = store.append({"a": rng.integers(100, 120, size=40),
                              "b": rng.choice(["y", "z"], size=40)})
        model = DuetModel(grown, CONFIG)
        answers = _probe_while_building(monkeypatch, service, queries)
        service.swap_model(model, model_version="cold")
        assert answers, "the swap must build an incoming plan"
        for answer in answers:
            assert not isinstance(answer, Exception), answer
            np.testing.assert_array_equal(answer, outgoing)
        assert np.isfinite(service.probe_batch(queries)).all()


class TestConcurrentRefresh:
    def test_no_torn_reads_across_repeated_swaps(self, serving_stack):
        """4 reader threads hammer the service while 3 refreshes swap."""
        service, store, workload = serving_stack
        stop = threading.Event()
        failures: list[BaseException] = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                try:
                    if rng.random() < 0.2:
                        batch = [workload.queries[int(index)] for index in
                                 rng.integers(0, len(workload), size=5)]
                        estimates = service.estimate_batch(batch)
                        assert np.isfinite(estimates).all()
                        assert (estimates >= 0.0).all()
                    else:
                        query = workload.queries[
                            int(rng.integers(0, len(workload)))]
                        estimate = service.estimate(query)
                        assert np.isfinite(estimate) and estimate >= 0.0
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

        threads = [threading.Thread(target=reader, args=(index,), daemon=True)
                   for index in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_seed in (31, 32, 33):
                _append_in_domain(store, 80, seed=round_seed)
                entry = service.refresh()
                assert entry is not None
                assert service.staleness() == 0
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)
        assert failures == []
        assert service.model_version == "v4"  # v1 + three refreshes

    def test_cache_namespace_tracks_served_identity(self, serving_stack):
        """A sampler thread checks the invariant while refreshes run.

        Under the refresh lock (i.e. whenever no swap is mid-flight) the key
        encoder's namespace must equal the served
        ``(dataset, model_version, data_version)`` triple — the property
        that makes a cache entry unservable after any swap.
        """
        service, store, workload = serving_stack
        stop = threading.Event()
        mismatches: list[tuple] = []
        samples = [0]

        def sampler() -> None:
            while not stop.is_set():
                with service._refresh_lock:
                    namespace = service._keys.namespace
                    expected = (service.dataset, service.model_version,
                                service.data_version)
                if namespace != expected:
                    mismatches.append((namespace, expected))
                samples[0] += 1

        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            for round_seed in (41, 42):
                _append_in_domain(store, 80, seed=round_seed)
                service.refresh()
                service.estimate(workload.queries[0])
        finally:
            stop.set()
            thread.join(timeout=15.0)
        assert samples[0] > 0
        assert mismatches == []

    def test_swap_mid_request_never_caches_under_old_namespace(self, serving_stack):
        """A request that loses the race to a swap must not repopulate the
        flushed cache under its superseded key encoder."""
        service, store, workload = serving_stack
        query = workload.queries[0]
        stale_encoder = service._keys
        stale_key = stale_encoder.key(query)
        _append_in_domain(store, 80, seed=51)
        service.refresh()
        # Replay the racing request's tail exactly as estimate() runs it:
        # the key was computed from the pre-swap encoder, so the identity
        # re-check fails and the put is dropped.
        racing_estimate = 123.0
        if stale_key is not None and service._keys is stale_encoder:
            service.cache.put(stale_key, racing_estimate)
        assert service.cache.get(stale_key) is None
        # And fresh requests repopulate under the new namespace only.
        service.estimate(query)
        assert service.cache.get(service._keys.key(query)) is not None
        assert service.cache.get(stale_key) is None

    def test_threaded_deletes_with_estimates_and_refreshes(self, serving_stack):
        """Deletes, appends, estimate()/estimate_batch() and refresh() race.

        The delete contract under concurrency: tombstone bitmaps are
        immutable (a delete publishes replacement bitmaps under the store
        lock), so no estimate is ever computed against a half-applied
        delete — readers either see the snapshot from before the delete or
        the one from after, and every estimate stays finite and
        non-negative.  A sampler thread simultaneously checks the cache
        namespace invariant across the delete-triggered swaps.
        """
        service, store, workload = serving_stack
        stop = threading.Event()
        failures: list[BaseException] = []
        mismatches: list[tuple] = []
        samples = [0]

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                try:
                    if rng.random() < 0.3:
                        batch = [workload.queries[int(index)] for index in
                                 rng.integers(0, len(workload), size=4)]
                        estimates = service.estimate_batch(batch)
                        assert np.isfinite(estimates).all()
                        assert (estimates >= 0.0).all()
                    else:
                        query = workload.queries[
                            int(rng.integers(0, len(workload)))]
                        estimate = service.estimate(query)
                        assert np.isfinite(estimate) and estimate >= 0.0
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

        def mutator() -> None:
            seed = 100
            while not stop.is_set():
                try:
                    seed += 1
                    if seed % 3 == 0:
                        _append_in_domain(store, 30, seed=seed)
                    else:
                        _delete_random(store, 25, seed=seed)
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

        def sampler() -> None:
            while not stop.is_set():
                with service._refresh_lock:
                    namespace = service._keys.namespace
                    expected = (service.dataset, service.model_version,
                                service.data_version)
                if namespace != expected:
                    mismatches.append((namespace, expected))
                samples[0] += 1

        threads = [threading.Thread(target=reader, args=(index,), daemon=True)
                   for index in range(3)]
        threads.append(threading.Thread(target=mutator, daemon=True))
        threads.append(threading.Thread(target=sampler, daemon=True))
        for thread in threads:
            thread.start()
        try:
            refreshed = 0
            deadline = time.time() + 60.0
            while refreshed < 3 and time.time() < deadline:
                if service.staleness() == 0:
                    # The mutator hasn't churned yet; don't burn the loop on
                    # fast-path no-ops before its thread gets scheduled.
                    time.sleep(0.005)
                    continue
                if service.refresh() is not None:
                    refreshed += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert failures == []
        assert refreshed >= 3          # delete churn alone must trigger tunes
        assert samples[0] > 0
        assert mismatches == []
        # After quiescing the mutator, one more refresh settles staleness.
        service.refresh()
        assert service.staleness() == 0
        assert service.table.num_rows == store.num_rows

    def test_concurrent_refresh_calls_serialise(self, serving_stack):
        """Two simultaneous refresh() calls: one tunes, the other no-ops."""
        service, store, workload = serving_stack
        _append_in_domain(store, 80, seed=61)
        results = []
        barrier = threading.Barrier(2)

        def refresher() -> None:
            barrier.wait()
            results.append(service.refresh())

        threads = [threading.Thread(target=refresher, daemon=True)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        entries = [entry for entry in results if entry is not None]
        assert len(results) == 2
        # Exactly one thread performed the tune; the loser saw a fresh
        # store (fast path) or re-checked under the lock and no-opped.
        assert len(entries) == 1
        assert service.staleness() == 0
        assert service.model_version == entries[0].version
