"""Compiled-vs-tape equivalence: the lowered plans must reproduce the
autograd path across every model configuration, within float64 round-off.

The tape path is the equivalence oracle (acceptance bound: 1e-6 relative in
float64; measured agreement is ~1e-15).  float32 plans get a looser, still
tight, bound.  Also covers compile-option persistence through the registry
and the serving layer's compiled runner.
"""

import numpy as np
import pytest

from repro.core import (
    CompiledDuetModel,
    DuetConfig,
    DuetEstimator,
    DuetModel,
    MPSNConfig,
    MergedMLPInference,
    ServingConfig,
    build_mpsn,
)
from repro.data import make_census
from repro.nn import PlanOptions, Tensor
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_multi_predicate_workload, make_random_workload

RELATIVE_TOLERANCE = 1e-6  # acceptance bound; observed agreement is ~1e-15


@pytest.fixture(scope="module")
def table():
    return make_census(scale=0.04, seed=0)


def _workload(table, config, num_queries=80, seed=3):
    if config.multi_predicate:
        return make_multi_predicate_workload(table, num_queries=num_queries, seed=seed)
    return make_random_workload(table, num_queries=num_queries, seed=seed)


CONFIGS = {
    "plain": DuetConfig(hidden_sizes=(48, 48), seed=0),
    "residual": DuetConfig(hidden_sizes=(48, 48), residual=True, seed=0),
    "onehot": DuetConfig(hidden_sizes=(32,), value_encoding="onehot", seed=0),
    "embedding": DuetConfig(hidden_sizes=(48,), embedding_threshold=8,
                            embedding_dim=8, seed=0),
    "mpsn-mlp": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                           max_predicates_per_column=2,
                           mpsn=MPSNConfig(kind="mlp", hidden_size=16), seed=0),
    "mpsn-rnn": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                           max_predicates_per_column=2,
                           mpsn=MPSNConfig(kind="rnn", hidden_size=16), seed=0),
    "mpsn-recursive": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                                 max_predicates_per_column=2,
                                 mpsn=MPSNConfig(kind="recursive", hidden_size=16),
                                 seed=0),
    "embedding+mpsn": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                                 max_predicates_per_column=2,
                                 embedding_threshold=8, embedding_dim=8,
                                 mpsn=MPSNConfig(kind="mlp", hidden_size=16), seed=0),
}


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_float64_matches_tape(self, table, name):
        config = CONFIGS[name]
        model = DuetModel(table, config)
        estimator = DuetEstimator(model)
        queries = _workload(table, config).queries
        tape, _ = estimator.estimate_batch_with_breakdown(queries, compiled=False)
        compiled, _ = estimator.estimate_batch_with_breakdown(queries, compiled=True)
        np.testing.assert_allclose(compiled, tape, rtol=RELATIVE_TOLERANCE,
                                   atol=RELATIVE_TOLERANCE)

    @pytest.mark.parametrize("name", ["plain", "residual", "embedding", "mpsn-mlp"])
    def test_float32_within_single_precision(self, table, name):
        config = CONFIGS[name]
        model = DuetModel(table, config)
        estimator = DuetEstimator(model).compile(PlanOptions(dtype="float32"))
        queries = _workload(table, config).queries
        tape, _ = estimator.estimate_batch_with_breakdown(queries, compiled=False)
        compiled, _ = estimator.estimate_batch_with_breakdown(queries, compiled=True)
        # float32 resolution, far below the model's own estimation error:
        # relative to the estimate itself, with a one-row absolute floor.
        np.testing.assert_allclose(compiled, tape, rtol=5e-4, atol=5e-4)

    @pytest.mark.parametrize("name", ["plain", "onehot", "embedding"])
    def test_table_gather_encode_equals_the_tape_encoding(self, table, name):
        """Every single-predicate model encodes by table gathers, embedding
        columns included; the result equals ``encode_batch`` exactly."""
        config = CONFIGS[name]
        model = DuetModel(table, config)
        compiled = CompiledDuetModel(model)
        assert compiled._fast_encode
        if name == "embedding":
            assert model._embedding_columns
        values, ops, _ = model.codec.translate_batch(_workload(table, config).queries)
        np.testing.assert_array_equal(compiled.encode(values, ops),
                                      model.encode_batch(values, ops).numpy())

    def test_compile_is_sticky_and_refreshable(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        assert not estimator.compiled
        estimator.compile()
        assert estimator.compiled
        assert estimator.compile_options == PlanOptions()
        estimator.compile(PlanOptions(dtype="float32"))
        assert estimator.compile_options == PlanOptions(dtype="float32")

    def test_empty_batch_matches_tape(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        tape, _ = estimator.estimate_batch_with_breakdown([], compiled=False)
        compiled, _ = estimator.estimate_batch_with_breakdown([], compiled=True)
        assert tape.shape == compiled.shape == (0,)

    def test_compiled_is_deterministic(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model).compile()
        queries = _workload(table, CONFIGS["plain"]).queries
        first = estimator.estimate_batch(queries)
        second = estimator.estimate_batch(queries)
        np.testing.assert_array_equal(first, second)

    def test_stale_plan_refreshes_on_recompile(self, table):
        """compile() snapshots weights; training then recompiling refreshes."""
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model).compile()
        queries = _workload(table, CONFIGS["plain"], num_queries=16).queries
        before = estimator.estimate_batch(queries)
        for parameter in model.parameters():
            parameter.data += 0.05  # stand-in for a training step
        stale = estimator.estimate_batch(queries)
        np.testing.assert_array_equal(stale, before)  # still the old snapshot
        estimator.compile()
        refreshed = estimator.estimate_batch(queries)
        tape, _ = estimator.estimate_batch_with_breakdown(queries, compiled=False)
        np.testing.assert_allclose(refreshed, tape, rtol=RELATIVE_TOLERANCE,
                                   atol=RELATIVE_TOLERANCE)


class TestMergedMPSNPlan:
    def test_merged_plan_obeys_dtype_option(self):
        config = MPSNConfig(kind="mlp", hidden_size=12, num_layers=2)
        rng = np.random.default_rng(3)
        mpsns = [build_mpsn(width, width, config, rng=rng) for width in (7, 5)]
        merged = MergedMLPInference(mpsns, PlanOptions(dtype="float32"))
        assert merged.plan.dtype is np.float32
        encodings = [rng.normal(size=(4, 2, width)) for width in (7, 5)]
        presence = [np.ones((4, 2)) for _ in range(2)]
        outputs = merged.forward(encodings, presence)
        for mpsn, encoding, output in zip(mpsns, encodings, outputs):
            direct = mpsn(Tensor(encoding), np.ones((4, 2))).numpy()
            np.testing.assert_allclose(output, direct, rtol=1e-3, atol=1e-3)


class TestRegistryCompileOptions:
    def test_round_trip_of_compile_options(self, tmp_path, table):
        model = DuetModel(table, CONFIGS["plain"])
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="census",
                      compile_options=PlanOptions(dtype="float32"))
        assert registry.compile_options("census") == PlanOptions(dtype="float32")
        reloaded = registry.load_estimator("census")
        assert reloaded.compiled
        assert reloaded.compile_options == PlanOptions(dtype="float32")
        queries = _workload(table, CONFIGS["plain"]).queries
        tape = DuetEstimator(model).estimate_batch(queries)
        np.testing.assert_allclose(reloaded.estimate_batch(queries), tape,
                                   rtol=5e-4, atol=5e-4)

    def test_save_without_options_stays_uncompiled(self, tmp_path, table):
        model = DuetModel(table, CONFIGS["plain"])
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="census")
        assert registry.compile_options("census") is None
        reloaded = registry.load_estimator("census")
        assert not reloaded.compiled
        # The tape-path reload therefore stays bit-for-bit with the original.
        queries = _workload(table, CONFIGS["plain"]).queries
        np.testing.assert_array_equal(reloaded.estimate_batch(queries),
                                      DuetEstimator(model).estimate_batch(queries))


class TestServingCompiledRunner:
    def test_service_runs_compiled_without_mutating_estimator(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        queries = _workload(table, CONFIGS["plain"], num_queries=30).queries
        tape = estimator.estimate_batch(queries)
        with EstimationService(estimator, ServingConfig(cache_capacity=0)) as service:
            served = service.estimate_batch(queries)
        assert not estimator.compiled  # the estimator object is untouched
        np.testing.assert_allclose(served, tape, rtol=1e-9, atol=1e-9)

    def test_service_float32_dtype(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        queries = _workload(table, CONFIGS["plain"], num_queries=30).queries
        config = ServingConfig(cache_capacity=0, inference_dtype="float32")
        with EstimationService(estimator, config) as service:
            served = service.estimate_batch(queries)
        np.testing.assert_allclose(served, estimator.estimate_batch(queries),
                                   rtol=5e-4, atol=5e-4)

    def test_service_reuses_matching_estimator_plan(self, table):
        """The service shares the estimator's plan when options match
        (no second weight snapshot per service)."""
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model).compile(PlanOptions(dtype="float32"))
        matching = ServingConfig(cache_capacity=0, inference_dtype="float32")
        with EstimationService(estimator, matching) as service:
            assert service._plan is estimator._compiled
        other = ServingConfig(cache_capacity=0, inference_dtype="float64")
        with EstimationService(estimator, other) as service:
            assert service._plan is not estimator._compiled
            assert service._plan.options == PlanOptions(dtype="float64")

    def test_swap_never_reuses_a_plan_of_the_outgoing_model(self, table):
        """A plan cached by an explicit ``compiled=True`` call holds the old
        weights: after a swap the service must lower the incoming model."""
        estimator = DuetEstimator(DuetModel(table, CONFIGS["plain"]))
        queries = _workload(table, CONFIGS["plain"], num_queries=10).queries
        estimator.estimate_batch_with_breakdown(queries, compiled=True)
        incoming = DuetModel(table, DuetConfig(hidden_sizes=(48, 48), seed=1))
        config = ServingConfig(cache_capacity=0, micro_batching=False)
        with EstimationService(estimator, config) as service:
            service.swap_model(incoming)
            served = service.estimate_batch(queries)
        np.testing.assert_allclose(
            served, DuetEstimator(incoming).estimate_batch(queries), rtol=1e-9)

    def test_service_defers_to_persisted_compile_options(self, tmp_path, table):
        """Default ServingConfig serves a registry-loaded estimator through
        its persisted plan (same dtype, same snapshot — not a float64 one)."""
        model = DuetModel(table, CONFIGS["plain"])
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="census",
                      compile_options=PlanOptions(dtype="float32"))
        reloaded = registry.load_estimator("census")
        config = ServingConfig(cache_capacity=0, micro_batching=False)
        with EstimationService(reloaded, config) as service:
            assert service._plan is reloaded._compiled  # shared, float32 plan
            queries = _workload(table, CONFIGS["plain"], num_queries=10).queries
            served = service.estimate_batch(queries)
        np.testing.assert_allclose(
            served, DuetEstimator(model).estimate_batch(queries),
            rtol=5e-4, atol=5e-4)

    def test_invalid_inference_dtype_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(inference_dtype="float16")


class TestBaselineCompilation:
    def test_naru_compiled_progressive_sampling_close_to_tape(self, table):
        from repro.baselines import NaruEstimator

        queries = make_random_workload(table, num_queries=5, seed=5).queries
        tape = NaruEstimator(table, hidden_sizes=(32,), num_samples=50, seed=0)
        compiled = NaruEstimator(table, hidden_sizes=(32,), num_samples=50, seed=0)
        compiled.compile()
        assert compiled.compiled and not tape.compiled
        for query in queries:
            # Same seed stream + numerically identical forward up to
            # round-off: the sampled paths coincide and estimates agree.
            np.testing.assert_allclose(compiled.estimate(query),
                                       tape.estimate(query), rtol=1e-6, atol=1e-6)

    def test_mscn_compiled_matches_tape(self, table):
        from repro.baselines import MSCNEstimator

        workload = make_random_workload(table, num_queries=60, seed=6)
        estimator = MSCNEstimator(table, epochs=2, seed=0).fit(workload)
        queries = make_random_workload(table, num_queries=40, seed=7).queries
        tape = estimator.estimate_batch(queries)
        estimator.compile()
        np.testing.assert_allclose(estimator.estimate_batch(queries), tape,
                                   rtol=1e-6, atol=1e-6)
