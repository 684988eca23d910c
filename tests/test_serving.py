"""Tests of the online estimation service (:mod:`repro.serving`).

Covers the satellite checklist: cache-key canonicalisation (predicate order,
operator aliases), micro-batch coalescing under concurrent threads, and the
registry save -> load -> identical-estimates round trip, plus service-level
end-to-end behaviour and stats.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core import DuetConfig, DuetEstimator, DuetModel, ServingConfig
from repro.data import Table
from repro.eval import evaluate_service, run_load_test
from repro.serving import (
    EstimateCache,
    EstimationService,
    MicroBatcher,
    ModelRegistry,
    QueryKeyEncoder,
    TableSchema,
)
from repro.serving.registry import load_metadata
from repro.workload import Query, make_random_workload


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(0)
    return Table.from_dict("tiny", {
        "age": rng.integers(18, 66, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })


@pytest.fixture(scope="module")
def estimator(table) -> DuetEstimator:
    # Untrained weights are fine: the serving layer only needs a
    # deterministic model, not an accurate one.
    return DuetEstimator(DuetModel(table, DuetConfig(hidden_sizes=(16, 16), seed=0)))


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestQueryKeyEncoder:
    def test_predicate_order_is_canonicalised(self, table):
        keys = QueryKeyEncoder(table)
        forward = Query.from_triples([("age", ">=", 30), ("score", "<=", 5)])
        backward = Query.from_triples([("score", "<=", 5), ("age", ">=", 30)])
        assert keys.key(forward) == keys.key(backward)

    def test_operator_aliases_share_a_key(self, table):
        keys = QueryKeyEncoder(table)
        # On an integer-coded domain, "> 29" and ">= 30" select the same codes.
        strict = Query.from_triples([("age", ">", 29)])
        inclusive = Query.from_triples([("age", ">=", 30)])
        assert keys.key(strict) == keys.key(inclusive)
        below = Query.from_triples([("age", "<", 30)])
        at_most = Query.from_triples([("age", "<=", 29)])
        assert keys.key(below) == keys.key(at_most)

    def test_distinct_queries_get_distinct_keys(self, table):
        keys = QueryKeyEncoder(table)
        assert (keys.key(Query.from_triples([("age", ">=", 30)]))
                != keys.key(Query.from_triples([("age", ">=", 31)])))
        assert (keys.key(Query.from_triples([("age", "=", 30)]))
                != keys.key(Query.from_triples([("score", "=", 3)])))

    def test_unconstraining_predicates_are_dropped(self, table):
        keys = QueryKeyEncoder(table)
        lowest = int(table.column("age").distinct_values.min())
        padded = Query.from_triples([("age", ">=", lowest), ("score", "=", 3)])
        bare = Query.from_triples([("score", "=", 3)])
        assert keys.key(padded) == keys.key(bare)

    def test_same_column_intervals_intersect(self, table):
        keys = QueryKeyEncoder(table)
        two_sided = Query.from_triples([("age", ">=", 30), ("age", "<=", 40)])
        reordered = Query.from_triples([("age", "<=", 40), ("age", ">=", 30)])
        assert keys.key(two_sided) == keys.key(reordered)
        assert keys.key(two_sided) != keys.key(Query.from_triples([("age", ">=", 30)]))


class TestEstimateCache:
    def test_lru_eviction(self):
        cache = EstimateCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0       # refreshes "a"; "b" is now LRU
        cache.put("c", 3.0)                 # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1.0 and cache.get("c") == 3.0
        assert len(cache) == 2 and "b" not in cache

    def test_zero_capacity_disables_caching(self):
        cache = EstimateCache(capacity=0)
        cache.put("a", 1.0)
        assert cache.get("a") is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_coalesces_concurrent_requests(self, table):
        observed_batches = []

        def runner(queries):
            observed_batches.append(len(queries))
            time.sleep(0.005)  # keep a pass in flight so the queue fills
            return [float(query.predicates[0].value) for query in queries], None

        queries = [Query.from_triples([("age", "=", value)]) for value in range(40)]
        with MicroBatcher(runner, max_batch_size=16, max_wait_ms=5.0) as batcher:
            barrier = threading.Barrier(8)
            results = {}

            def client(worker):
                barrier.wait()
                for query in queries[worker::8]:
                    results[query.predicates[0].value] = batcher.estimate(query)

            threads = [threading.Thread(target=client, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # Every request got its own answer back, in spite of coalescing.
        assert results == {value: float(value) for value in range(40)}
        assert sum(observed_batches) == 40
        assert max(observed_batches) > 1         # coalescing actually happened
        assert len(observed_batches) < 40        # fewer passes than requests
        assert max(observed_batches) <= 16       # cap respected

    def test_batch_closes_once_the_previous_passes_callers_are_back(self):
        """Two closed-loop callers: only the first pass waits out the window;
        later ones close as soon as both requests are queued."""
        sizes = []

        def runner(queries):
            sizes.append(len(queries))
            return [0.0] * len(queries), None

        query = Query.from_triples([("age", "=", 1)])
        barrier = threading.Barrier(2)

        def client(batcher):
            for _ in range(10):
                barrier.wait()
                batcher.estimate(query)

        with MicroBatcher(runner, max_batch_size=16, max_wait_ms=300.0) as batcher:
            threads = [threading.Thread(target=client, args=(batcher,))
                       for _ in range(2)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        assert sizes == [2] * 10
        assert elapsed < 1.5  # a full window per pass would take >= 3 s

    def test_lone_request_waits_the_window_for_company(self):
        with MicroBatcher(lambda queries: ([0.0] * len(queries), None),
                          max_batch_size=16, max_wait_ms=100.0) as batcher:
            for _ in range(2):
                started = time.perf_counter()
                batcher.estimate(Query.from_triples([("age", "=", 1)]))
                assert time.perf_counter() - started >= 0.09

    def test_runner_errors_propagate_to_futures(self):
        def runner(queries):
            raise RuntimeError("model exploded")

        with MicroBatcher(runner, max_batch_size=4, max_wait_ms=0.0) as batcher:
            future = batcher.submit(Query.from_triples([("age", "=", 1)]))
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=5)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda queries: ([0.0] * len(queries), None))
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(Query.from_triples([("age", "=", 1)]))

    def test_shape_mismatch_is_reported(self):
        with MicroBatcher(lambda queries: ([1.0, 2.0, 3.0], None),
                          max_batch_size=1) as batcher:
            future = batcher.submit(Query.from_triples([("age", "=", 1)]))
            with pytest.raises(ValueError, match="runner returned shape"):
                future.result(timeout=5)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_save_load_identical_estimates(self, tmp_path, table, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        reloaded = registry.load_estimator("tiny")
        workload = make_random_workload(table, num_queries=60, seed=5)
        assert np.array_equal(estimator.estimate_batch(workload.queries),
                              reloaded.estimate_batch(workload.queries))

    def test_loads_models_saved_with_units_in_draw_order(self, tmp_path, table,
                                                         estimator):
        """An archive without the ``made_units`` marker holds MADE's hidden
        units in draw order (as saved before they were listed in degree
        order); loading relabels them, so it serves the same estimates."""
        registry = ModelRegistry(tmp_path)
        entry = registry.save(estimator.model, dataset="tiny")
        model = estimator.model
        made = model.made
        names = {id(parameter): name for name, parameter in model.named_parameters()}
        state = model.state_dict()
        layers = [*made._layers, made.output_layer]
        max_degree = max(made.num_columns - 1, 1)
        for index, size in enumerate(made.hidden_sizes):
            inverse = np.argsort(np.argsort(np.arange(size) % max_degree, kind="stable"))
            for parameter, permute in ((layers[index].weight, lambda a: a[:, inverse]),
                                       (layers[index].bias, lambda a: a[inverse]),
                                       (layers[index + 1].weight, lambda a: a[inverse])):
                state[names[id(parameter)]] = permute(state[names[id(parameter)]])
        metadata = load_metadata(entry.model_path)
        del metadata["made_units"]
        payload = {name.replace(".", "/"): value for name, value in state.items()}
        np.savez(entry.model_path, __metadata__=np.array(json.dumps(metadata)),
                 **payload)
        reloaded = registry.load_estimator("tiny")
        for (name, expected), actual in zip(model.named_parameters(),
                                            reloaded.model.parameters()):
            np.testing.assert_array_equal(actual.data, expected.data, err_msg=name)

    def test_schema_table_refuses_data_access(self, tmp_path, table, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        reloaded = registry.load_estimator("tiny")
        workload = make_random_workload(table, num_queries=5, seed=59, label=False)
        # Ground truth against the schema-only table must fail loudly at
        # every entry point, not crash with a broadcast error or mislabel.
        with pytest.raises(ValueError, match="schema-only stand-in"):
            workload.label(reloaded.table)
        with pytest.raises(RuntimeError, match="carries no tuples"):
            reloaded.table.code_matrix()
        with pytest.raises(RuntimeError, match="carries no tuples"):
            reloaded.table.sample_rows(3)

    def test_schema_table_preserves_domains_and_row_count(self, tmp_path, table):
        schema = TableSchema.from_table(table)
        path = schema.save(tmp_path / "schema")
        assert path.exists() and path.name.endswith(".npz")
        rebuilt = TableSchema.load(path).to_table()
        assert rebuilt.num_rows == table.num_rows
        assert rebuilt.column_names == table.column_names
        for original, restored in zip(table.columns, rebuilt.columns):
            assert np.array_equal(original.distinct_values, restored.distinct_values)

    def test_versioning_and_manifest(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        first = registry.save(estimator.model, dataset="tiny",
                              metadata={"note": "first"})
        second = registry.save(estimator.model, dataset="tiny")
        assert (first.version, second.version) == ("v1", "v2")
        assert registry.versions("tiny") == ["v1", "v2"]
        assert registry.latest_version("tiny") == "v2"
        assert registry.entry("tiny", "v1").metadata == {"note": "first"}
        assert "tiny" in registry and "other" not in registry
        pinned = registry.save(estimator.model, dataset="tiny", version="golden")
        assert registry.latest_version("tiny") == "golden"
        assert pinned.num_parameters == estimator.model.num_parameters()

    def test_unknown_entries_raise(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(KeyError):
            registry.latest_version("tiny")
        registry.save(estimator.model, dataset="tiny")
        with pytest.raises(KeyError):
            registry.entry("tiny", "v9")


# ----------------------------------------------------------------------
# Service end-to-end
# ----------------------------------------------------------------------
class TestEstimationService:
    def test_concurrent_estimates_match_the_estimator(self, table, estimator):
        workload = make_random_workload(table, num_queries=64, seed=11)
        expected = estimator.estimate_batch(workload.queries)
        config = ServingConfig(max_wait_ms=1.0, inference_dtype="float64")
        with EstimationService(estimator, config) as service:
            results = np.empty(len(workload))

            def client(indices):
                for index in indices:
                    results[index] = service.estimate(workload.queries[index])

            threads = [threading.Thread(target=client,
                                        args=(range(start, len(workload), 4),))
                       for start in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Micro-batches group queries differently than the reference batch,
        # which perturbs BLAS summation order: equality up to float noise.
        np.testing.assert_allclose(results, expected, rtol=1e-9)

    def test_one_bad_request_fails_only_itself(self, table, estimator):
        """A query over the per-column predicate budget raises inside the
        batched pass; the good requests coalesced with it must still get
        their own answers."""
        good = make_random_workload(table, num_queries=7, seed=5,
                                    label=False).queries
        bad = Query.from_triples([("age", ">=", 20), ("age", "<=", 50),
                                  ("age", ">=", 25)])
        requests = [*good[:3], bad, *good[3:]]
        config = ServingConfig(cache_capacity=0, max_wait_ms=50.0)
        with EstimationService(estimator, config) as service:
            barrier = threading.Barrier(len(requests))
            outcomes: list = [None] * len(requests)

            def client(index):
                barrier.wait()
                try:
                    outcomes[index] = service.estimate(requests[index])
                except ValueError as error:
                    outcomes[index] = error

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(len(requests))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            solo = [float(service.probe_batch([query])[0]) for query in good]
        assert isinstance(outcomes[3], ValueError)
        served = [outcome for index, outcome in enumerate(outcomes)
                  if index != 3]
        assert all(isinstance(outcome, float) for outcome in served)
        np.testing.assert_allclose(served, solo, rtol=1e-12)

    def test_cache_hits_skip_the_model(self, table, estimator):
        query = Query.from_triples([("age", ">=", 30)])
        with EstimationService(estimator, ServingConfig()) as service:
            first = service.estimate(query)
            passes_after_first = service.snapshot().num_batches
            second = service.estimate(query)
            snapshot = service.snapshot()
        assert first == second
        assert snapshot.num_batches == passes_after_first  # no extra forward pass
        assert snapshot.cache_hits == 1 and snapshot.cache_misses == 1

    def test_naive_mode_runs_one_pass_per_request(self, table, estimator):
        workload = make_random_workload(table, num_queries=10, seed=23)
        with EstimationService(
                estimator,
                ServingConfig(micro_batching=False, cache_capacity=0)) as service:
            for query in workload.queries:
                service.estimate(query)
            snapshot = service.snapshot()
        assert snapshot.num_batches == len(workload)
        assert snapshot.mean_batch_size == 1.0

    def test_estimate_batch_uses_cache(self, table, estimator):
        workload = make_random_workload(table, num_queries=20, seed=29)
        with EstimationService(estimator, ServingConfig()) as service:
            first = service.estimate_batch(workload.queries)
            passes = service.snapshot().num_batches
            second = service.estimate_batch(workload.queries)
            assert service.snapshot().num_batches == passes  # all cached
        assert np.array_equal(first, second)

    def test_evaluate_service_reports_load_and_accuracy(self, table, estimator):
        workload = make_random_workload(table, num_queries=30, seed=41)
        with EstimationService(estimator, ServingConfig(max_wait_ms=0.5)) as service:
            result = evaluate_service(service, workload, concurrency=4,
                                      num_requests=200, table=table)
        assert result.report.num_requests == 200
        assert result.report.errors == 0
        assert result.report.qps > 0
        assert result.summary.count == len(workload)
        assert result.report.p50_ms <= result.report.p99_ms
        row = result.as_table_row()
        assert row[0] == estimator.name

    def test_evaluate_service_rejects_schema_only_labeling(self, tmp_path, table,
                                                           estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        unlabeled = make_random_workload(table, num_queries=10, seed=53, label=False)
        with EstimationService.from_registry(registry, "tiny") as service:
            # The service's own table is a data-less schema stand-in: asking
            # it to label ground truth must fail loudly, not mislabel.
            with pytest.raises(ValueError, match="schema stand-in"):
                evaluate_service(service, unlabeled, concurrency=2, num_requests=20)
            # Passing the data table (or a labelled workload) works.
            result = evaluate_service(service, unlabeled, concurrency=2,
                                      num_requests=20, table=table)
        assert result.summary.count == len(unlabeled)

    def test_from_registry_round_trip(self, tmp_path, table, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        workload = make_random_workload(table, num_queries=25, seed=47)
        config = ServingConfig(inference_dtype="float64")
        with EstimationService.from_registry(registry, "tiny", config=config) as service:
            report = run_load_test(service, workload, concurrency=4,
                                   num_requests=100, seed=1)
            served = service.estimate_batch(workload.queries)
        assert report.errors == 0
        # Some entries were cached during the load test under different
        # batch compositions, so compare up to float noise here; the strict
        # bit-for-bit check lives in TestModelRegistry.
        np.testing.assert_allclose(served, estimator.estimate_batch(workload.queries),
                                   rtol=1e-9)


# ----------------------------------------------------------------------
# Registry retention
# ----------------------------------------------------------------------
class TestRegistryPrune:
    def test_prunes_to_newest_versions(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        for _ in range(5):
            registry.save(estimator.model, dataset="tiny")
        removed = registry.prune("tiny", keep=2)
        assert removed == ["v3", "v2", "v1"]
        assert registry.versions("tiny") == ["v4", "v5"]
        assert registry.latest_version("tiny") == "v5"
        for version in removed:
            assert not (tmp_path / "tiny" / version).exists()
        # Survivors still load bit-for-bit.
        registry.load_estimator("tiny", "v4")

    def test_never_deletes_latest_even_with_keep_one(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        registry.save(estimator.model, dataset="tiny")
        registry.prune("tiny", keep=1)
        assert registry.versions("tiny") == ["v2"]
        assert registry.latest_version("tiny") == "v2"

    def test_protect_keeps_the_served_version(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        for _ in range(4):
            registry.save(estimator.model, dataset="tiny")
        removed = registry.prune("tiny", keep=1, protect=("v2",))
        assert "v2" not in removed
        assert registry.versions("tiny") == ["v2", "v4"]
        # Unknown protected names are ignored rather than invented.
        assert registry.prune("tiny", keep=1, protect=("v99",)) == ["v2"]

    def test_prune_is_a_noop_when_nothing_to_remove(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        assert registry.prune("tiny", keep=3) == []
        assert registry.prune("unknown-dataset", keep=1) == []

    def test_prune_rejects_keep_below_one(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        with pytest.raises(ValueError, match="at least one"):
            registry.prune("tiny", keep=0)

    def test_prune_refuses_inconsistent_manifest(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        latest = registry.save(estimator.model, dataset="tiny")
        latest.model_path.unlink()  # manifest now lies about v2
        with pytest.raises(RuntimeError, match="refusing to prune"):
            registry.prune("tiny", keep=1)
        # Nothing was deleted by the aborted prune.
        assert registry.versions("tiny") == ["v1", "v2"]
        assert (tmp_path / "tiny" / "v1").exists()
