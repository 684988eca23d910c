"""End-to-end tests of the mutable data lifecycle:

append → delta labeling → incremental fine-tune → registry versioning →
staleness-aware serving with hot-swap and cache invalidation.  This is the
acceptance path of the data-side drift story (the data twin of
``examples/workload_drift.py``).
"""

import numpy as np
import pytest

from repro.core import (
    DomainGrowthError,
    DuetConfig,
    DuetEstimator,
    DuetModel,
    DuetTrainer,
    ServingConfig,
)
from repro.data import ColumnStore, Table
from repro.serving import EstimationService, ModelRegistry
from repro.workload import (
    Query,
    make_random_workload,
    true_cardinalities,
    true_cardinalities_delta,
)

CONFIG = DuetConfig(hidden_sizes=(16, 16), epochs=1, batch_size=128,
                    expand_coefficient=1, lambda_query=0.0, seed=0)


@pytest.fixture()
def store() -> ColumnStore:
    rng = np.random.default_rng(0)
    table = Table.from_dict("lifecycle", {
        "age": rng.integers(18, 60, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })
    return ColumnStore.from_table(table)


def _append_in_domain(store: ColumnStore, count: int, seed: int):
    """Append rows drawn from the existing domains (no growth)."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    return store.append({
        name: snapshot.column(name).distinct_values[
            rng.integers(0, snapshot.column(name).num_distinct, size=count)]
        for name in snapshot.column_names
    })


class TestEndToEndLifecycle:
    def test_full_lifecycle(self, store, tmp_path):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle",
                      compile_options=None)

        workload = make_random_workload(base, num_queries=60, seed=11,
                                        label=False)
        base_counts = true_cardinalities(base, workload.queries)

        service = EstimationService.from_registry(
            registry, "lifecycle", store=store,
            config=ServingConfig(max_wait_ms=0.5, inference_dtype="float64"))
        with service:
            probe = workload.queries[0]
            stale_estimate = service.estimate(probe)
            assert service.staleness() == 0
            assert len(service.cache) == 1

            # 1. Append: a skewed batch over the existing domains.
            new_snapshot = _append_in_domain(store, 120, seed=7)
            assert service.staleness() == 120

            # 2. Delta labeling equals a full rescan bit-for-bit.
            delta = store.delta(base)
            delta_counts = true_cardinalities_delta(delta, workload.queries,
                                                    base_counts)
            np.testing.assert_array_equal(
                delta_counts, true_cardinalities(new_snapshot, workload.queries))

            # 3. refresh(): fine-tune + re-register + hot-swap + invalidate.
            entry = service.refresh()
            assert entry is not None
            assert entry.data_version == new_snapshot.data_version
            assert registry.latest_version("lifecycle") == entry.version
            assert registry.entry("lifecycle").data_version == entry.data_version
            assert service.staleness() == 0
            assert service.data_version == new_snapshot.data_version
            # The pre-refresh cache entry is gone; the probe is re-estimated
            # against the refreshed model and the new row count.
            assert len(service.cache) == 0
            refreshed_estimate = service.estimate(probe)
            assert refreshed_estimate != stale_estimate
            # The served model scales selectivities by the *new* row count.
            assert service.table.num_rows == new_snapshot.num_rows

            # 4. A reloaded estimator from the refreshed entry serves
            #    identical estimates (registry round trip).
            reloaded = registry.load_estimator("lifecycle")
            assert reloaded.data_version == entry.data_version
            np.testing.assert_allclose(
                reloaded.estimate_batch(workload.queries),
                service.estimate_batch(workload.queries), rtol=1e-9)

    def test_committed_model_carries_no_gradients(self, store, tmp_path):
        """A served version holds parameters only: training's last-step
        gradients (one parameter-sized set) are dropped when it returns."""
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        assert all(parameter.grad is None for parameter in model.parameters())
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle")
        committed = []
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            _append_in_domain(store, 60, seed=3)
            outcome = service.tune(gate=lambda candidate: committed.append(candidate)
                                   or True)
            assert outcome.status == "swapped", outcome.error
            assert service.estimator.model is committed[0]
        assert all(parameter.grad is None for parameter in committed[0].parameters())

    def test_refresh_without_appends_is_noop(self, store, tmp_path):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle")
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            assert service.refresh() is None
            assert registry.versions("lifecycle") == ["v1"]

    def test_refresh_fast_path_skips_work_and_keeps_cache(self, store, tmp_path,
                                                          monkeypatch):
        """staleness() == 0 must short-circuit before delta materialisation,
        fine-tuning, and — crucially — the cache flush."""
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle")
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            probe = Query.from_triples([("age", ">=", 30)])
            service.estimate(probe)
            assert len(service.cache) == 1
            # The fast path must not even look at deltas or snapshots.
            monkeypatch.setattr(store, "delta", lambda *a, **k: pytest.fail(
                "no-op refresh materialised a delta"))
            monkeypatch.setattr(store, "snapshot", lambda: pytest.fail(
                "no-op refresh took a snapshot"))
            assert service.refresh() is None
            assert len(service.cache) == 1       # valid entries survive
            assert registry.versions("lifecycle") == ["v1"]

    def test_refresh_after_pure_delete_tunes_and_invalidates(self, store,
                                                             tmp_path):
        """Regression (the old fast path only counted appended rows): a
        pure delete must register as staleness and drive a real refresh —
        fine-tune with negative replay, re-register, hot-swap, cache
        flush."""
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle")
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            probe = Query.from_triples([("age", ">=", 30)])
            service.estimate(probe)
            assert len(service.cache) == 1
            store.delete(np.arange(80))
            assert service.staleness() == 80
            entry = service.refresh()
            assert entry is not None
            assert entry.data_version == store.data_version
            assert service.staleness() == 0
            assert len(service.cache) == 0          # stale entries flushed
            assert service.table.num_rows == store.num_rows == 320
            assert registry.latest_version("lifecycle") == entry.version

    def test_refresh_requires_a_store(self):
        estimator = DuetEstimator(DuetModel(
            Table.from_dict("static", {"a": [1, 2, 3]}), CONFIG))
        with EstimationService(estimator) as service:
            assert service.staleness() == 0
            with pytest.raises(RuntimeError, match="live ColumnStore"):
                service.refresh()


class TestFineTune:
    def test_fine_tune_trains_only_on_delta_plus_replay(self, store):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        _append_in_domain(store, 100, seed=3)
        snapshot = store.snapshot()
        delta = store.delta(base)
        trainer, history = DuetTrainer.fine_tune(snapshot, model, delta,
                                                 epochs=2, replay_fraction=0.5)
        assert len(history.epochs) == 2
        # 100 appended + 50 replay rows, not the full 500-row table.
        assert trainer.train_row_indices.size == 150
        assert trainer.train_row_indices.min() >= 0
        assert (trainer.train_row_indices >= delta.base_rows).sum() == 100
        # Only the training slice is gathered, not the whole code matrix.
        assert trainer._codes.shape == (150, snapshot.num_columns)
        assert model.table is snapshot  # rebound to the new snapshot

    def test_fine_tune_mixed_delta_trains_positives_and_negatives(self, store):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        _append_in_domain(store, 100, seed=3)
        store.delete(np.arange(60))             # 60 base rows tombstoned
        snapshot = store.snapshot()
        delta = store.delta(base)
        assert delta.appended_rows == 100 and delta.removed_rows == 60
        trainer, history = DuetTrainer.fine_tune(snapshot, model, delta,
                                                 epochs=1, replay_fraction=0.25)
        assert len(history.epochs) == 1
        # Positives: 100 appended + round(0.25 * 160) replay of survivors.
        assert trainer.train_row_indices.size == 140
        assert (trainer.train_row_indices >= delta.surviving_base_rows).sum() == 100
        assert (trainer.train_row_indices < delta.surviving_base_rows).sum() == 40
        # Negatives: the removed rows' code matrix.
        assert trainer._negative_codes.shape == (60, snapshot.num_columns)
        assert model.table is snapshot

    def test_fine_tune_pure_delete_replays_survivors(self, store):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        store.delete(np.arange(100))
        snapshot = store.snapshot()
        delta = store.delta(base)
        assert delta.appended_rows == 0 and delta.removed_rows == 100
        trainer, _ = DuetTrainer.fine_tune(snapshot, model, delta, epochs=1,
                                           replay_fraction=0.5)
        # Positive side falls back to a replay sample of surviving rows.
        assert trainer.train_row_indices.size == 50
        assert trainer.train_row_indices.max() < delta.surviving_base_rows
        assert trainer._negative_codes.shape == (100, snapshot.num_columns)

    def test_fine_tune_rejects_domain_growth(self, store):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        store.append({"age": [150], "city": ["zrh"], "score": [3]})
        delta = store.delta(base)
        with pytest.raises(DomainGrowthError) as excinfo:
            DuetTrainer.fine_tune(store.snapshot(), model, delta)
        assert set(excinfo.value.columns) == {"age", "city"}

    def test_rebind_rejects_changed_domains(self, store):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        store.append({"age": [17], "city": ["ams"], "score": [0]})
        with pytest.raises(DomainGrowthError, match="different"):
            model.rebind(store.snapshot())

    def test_rebind_accepts_same_domain_snapshot(self, store):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        grown = _append_in_domain(store, 10, seed=1)
        model.rebind(grown)
        assert model.table is grown
        assert model.codec.table is grown

    def test_refresh_propagates_domain_growth(self, store, tmp_path):
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle")
        store.append({"age": [150], "city": ["zrh"], "score": [3]})
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            with pytest.raises(DomainGrowthError):
                service.refresh()


class TestVersionedCacheKeys:
    def test_swapped_model_cannot_serve_stale_cache_entries(self, store, tmp_path):
        """Regression: cache keys must be scoped by (dataset, model, data)."""
        base = store.snapshot()
        model = DuetModel(base, CONFIG)
        DuetTrainer(model, base, config=CONFIG).train(1)
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="lifecycle")
        query = Query.from_triples([("age", ">=", 30)])
        with EstimationService.from_registry(registry, "lifecycle",
                                             store=store) as service:
            before_key = service._keys.key(query)
            service.estimate(query)
            assert service.cache.get(before_key) is not None
            _append_in_domain(store, 80, seed=13)
            service.refresh()
            after_key = service._keys.key(query)
            # Same query, different serving identity: the key changed AND
            # the old entry was flushed — either alone prevents stale serves.
            assert after_key != before_key
            assert service.cache.get(before_key) is None

    def test_namespace_distinguishes_identical_intervals(self, store):
        from repro.serving import QueryKeyEncoder
        base = store.snapshot()
        query = Query.from_triples([("age", ">=", 30)])
        plain = QueryKeyEncoder(base)
        scoped_v1 = QueryKeyEncoder(base, namespace=("d", "v1", 1))
        scoped_v2 = QueryKeyEncoder(base, namespace=("d", "v2", 2))
        assert plain.key(query) != scoped_v1.key(query)
        assert scoped_v1.key(query) != scoped_v2.key(query)
