"""Tests for the compiled inference plans (repro.nn.inference), the in-place
optimisers, and the vectorised one-pass query translation."""

import numpy as np
import pytest

from repro import nn
from repro.core import DuetConfig
from repro.core.encoding import QueryCodec
from repro.data import make_census
from repro.nn import ForwardPlan, PlanOptions, StageSpec, Tensor, lower_module
from repro.nn.inference import masked_block_mass, stable_sigmoid, stable_softmax
from repro.workload import (
    Query,
    make_inworkload,
    make_multi_predicate_workload,
    make_random_workload,
)


# ----------------------------------------------------------------------
# PlanOptions
# ----------------------------------------------------------------------
class TestPlanOptions:
    def test_default_is_float64(self):
        assert PlanOptions().numpy_dtype is np.float64

    def test_float32(self):
        assert PlanOptions(dtype="float32").numpy_dtype is np.float32

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            PlanOptions(dtype="float16")

    def test_round_trips_through_dict(self):
        options = PlanOptions(dtype="float32")
        assert PlanOptions.from_dict(options.to_dict()) == options


# ----------------------------------------------------------------------
# ForwardPlan
# ----------------------------------------------------------------------
class TestForwardPlan:
    def _plan(self, dtype="float64"):
        rng = np.random.default_rng(0)
        stages = [
            StageSpec(rng.normal(size=(6, 8)), rng.normal(size=8), activation="relu"),
            StageSpec(rng.normal(size=(8, 8)), rng.normal(size=8), activation="relu",
                      residual_from=0),
            StageSpec(rng.normal(size=(8, 4)), rng.normal(size=4)),
        ]
        return ForwardPlan(stages, PlanOptions(dtype=dtype)), stages

    def test_matches_manual_forward(self):
        plan, stages = self._plan()
        x = np.random.default_rng(1).normal(size=(5, 6))
        h0 = np.maximum(x @ stages[0].weight + stages[0].bias, 0.0)
        h1 = np.maximum(h0 @ stages[1].weight + stages[1].bias, 0.0) + h0
        expected = h1 @ stages[2].weight + stages[2].bias
        np.testing.assert_allclose(plan.run(x), expected, rtol=1e-12)

    def test_buffers_are_reused_across_batches(self):
        plan, _ = self._plan()
        x = np.random.default_rng(2).normal(size=(16, 6))
        out1 = plan.run(x)
        first_buffer = out1.base if out1.base is not None else out1
        out2 = plan.run(x[:4])
        second_buffer = out2.base if out2.base is not None else out2
        assert first_buffer is second_buffer  # no reallocation for smaller batches
        assert plan.buffer_bytes > 0

    def test_output_valid_until_next_run(self):
        plan, _ = self._plan()
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        first = plan.run(a).copy()
        plan.run(b)
        np.testing.assert_allclose(plan.run(a), first)

    def test_float32_stays_close(self):
        plan64, _ = self._plan()
        plan32, _ = self._plan(dtype="float32")
        x = np.random.default_rng(4).normal(size=(7, 6))
        out64 = plan64.run(x)
        out32 = plan32.run(x)
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-4)

    def test_empty_batch_returns_empty_output(self):
        plan, _ = self._plan()
        out = plan.run(np.zeros((0, 6)))
        assert out.shape == (0, 4)

    def test_rejects_bad_shapes(self):
        plan, _ = self._plan()
        with pytest.raises(ValueError):
            plan.run(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            ForwardPlan([], PlanOptions())

    def test_rejects_mismatched_stage_widths(self):
        with pytest.raises(ValueError):
            ForwardPlan([StageSpec(np.zeros((4, 5)), None),
                         StageSpec(np.zeros((6, 2)), None)])

    def test_rejects_forward_residual_reference(self):
        with pytest.raises(ValueError):
            ForwardPlan([StageSpec(np.zeros((4, 4)), None, residual_from=0)])


# ----------------------------------------------------------------------
# Lowering hooks
# ----------------------------------------------------------------------
class TestLowering:
    def test_linear_exports_raw_weights(self):
        layer = nn.Linear(3, 4, rng=np.random.default_rng(0))
        weight, bias = layer.export_weights()
        np.testing.assert_array_equal(weight, layer.weight.data)
        np.testing.assert_array_equal(bias, layer.bias.data)

    def test_masked_linear_folds_mask(self):
        layer = nn.MaskedLinear(3, 4, rng=np.random.default_rng(0))
        mask = (np.random.default_rng(1).uniform(size=(3, 4)) > 0.5).astype(float)
        layer.set_mask(mask)
        weight, _ = layer.export_weights()
        np.testing.assert_array_equal(weight, layer.weight.data * mask)

    def test_sequential_lowering_matches_tape(self):
        rng = np.random.default_rng(5)
        net = nn.Sequential(nn.Linear(5, 9, rng=rng), nn.ReLU(),
                            nn.Linear(9, 9, rng=rng), nn.Tanh(),
                            nn.Linear(9, 2, rng=rng), nn.Sigmoid())
        plan = lower_module(net)
        x = rng.normal(size=(6, 5))
        with nn.no_grad():
            expected = net(Tensor(x)).numpy()
        np.testing.assert_allclose(plan.run(x), expected, rtol=1e-12)

    def test_made_lowering_matches_tape(self):
        made = nn.MADE(input_bins=[3, 2, 4], output_bins=[4, 3, 5],
                       hidden_sizes=[16, 16], residual=True, seed=0)
        plan = lower_module(made)
        x = np.random.default_rng(6).normal(size=(5, made.total_input))
        with nn.no_grad():
            expected = made(Tensor(x)).numpy()
        np.testing.assert_allclose(plan.run(x), expected, rtol=1e-12)

    @staticmethod
    def _dense_twin(plan, dtype):
        """The plan's stages with every row limit dropped: plain folded GEMMs."""
        return ForwardPlan([StageSpec(stage.weight, stage.bias, stage.activation,
                                      stage.residual_from) for stage in plan.stages],
                           PlanOptions(dtype=dtype))

    @pytest.mark.parametrize("hidden_sizes", [[32, 64], []], ids=["hidden", "no-hidden"])
    def test_prefix_output_stage_equals_dense_folded_gemm(self, hidden_sizes,
                                                          monkeypatch):
        monkeypatch.setattr(nn.made, "MIN_SKIPPED_PER_BLOCK", 0)
        made = nn.MADE(input_bins=[3, 2, 4, 2, 5], output_bins=[4, 7, 5, 3, 6],
                       hidden_sizes=hidden_sizes, seed=2)
        plan = lower_module(made)
        output = plan.stages[-1]
        assert output.row_limits == tuple(
            (rows, block.output_start, block.output_end)
            for rows, block in zip(made.output_row_limits(), made.blocks))
        dense = self._dense_twin(plan, "float64")
        x = np.random.default_rng(7).normal(size=(9, made.total_input))
        expected = dense.run(x).copy()
        np.testing.assert_allclose(plan.run(x), expected, rtol=1e-12, atol=1e-12)
        plan32 = lower_module(made, PlanOptions(dtype="float32"))
        np.testing.assert_allclose(plan32.run(x), expected, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(plan.run(x[:1]), expected[:1], rtol=1e-12, atol=1e-12)

    def test_row_limits_must_tile_the_output_in_order(self):
        weight = np.zeros((4, 6))
        StageSpec(weight, None, row_limits=[(0, 0, 2), (4, 2, 6)])
        for limits in ([(0, 0, 2), (4, 3, 6)], [(0, 0, 2), (5, 2, 6)],
                       [(0, 0, 2), (4, 2, 5)], [(4, 2, 6), (0, 0, 2)]):
            with pytest.raises(ValueError):
                StageSpec(weight, None, row_limits=limits)

    def test_unloerable_module_rejected(self):
        with pytest.raises(TypeError):
            lower_module(nn.LSTM(4, 4))

    def test_stable_helpers_match_tape(self):
        from repro.nn import functional as F

        x = np.random.default_rng(7).normal(size=(4, 6)) * 10
        np.testing.assert_allclose(stable_softmax(x.copy()),
                                   F.softmax(Tensor(x)).numpy(), rtol=1e-12)
        np.testing.assert_allclose(stable_sigmoid(x.copy()),
                                   Tensor(x).sigmoid().numpy(), rtol=1e-12)


# ----------------------------------------------------------------------
# Fused masked selectivity
# ----------------------------------------------------------------------
class TestMaskedBlockMass:
    def _reference(self, logits, blocks, masks):
        result = np.ones(logits.shape[0])
        for (start, end), mask in zip(blocks, masks):
            if mask is None:
                continue
            block = logits[:, start:end]
            dist = np.exp(block - block.max(axis=1, keepdims=True))
            dist /= dist.sum(axis=1, keepdims=True)
            result *= (dist * mask).sum(axis=1)
        return result

    def test_matches_dense_softmax_reference(self):
        rng = np.random.default_rng(8)
        blocks = [(0, 4), (4, 9), (9, 12)]
        logits = rng.normal(size=(6, 12)) * 5
        masks = [
            (rng.uniform(size=(6, 4)) > 0.4).astype(float),
            None,
            (rng.uniform(size=(6, 3)) > 0.4).astype(float),
        ]
        np.testing.assert_allclose(masked_block_mass(logits, blocks, masks),
                                   self._reference(logits, blocks, masks),
                                   rtol=1e-12)

    def test_all_unconstrained_is_exactly_one(self):
        logits = np.random.default_rng(9).normal(size=(3, 7))
        out = masked_block_mass(logits, [(0, 3), (3, 7)], [None, None])
        np.testing.assert_array_equal(out, np.ones(3))

    def test_extreme_logits_are_stable(self):
        logits = np.array([[1e4, -1e4, 5e3, 0.0]])
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        out = masked_block_mass(logits, [(0, 4)], [mask])
        assert np.isfinite(out).all() and 0.0 <= out[0] <= 1.0

    def test_zero_mask_gives_zero_mass(self):
        logits = np.random.default_rng(10).normal(size=(2, 5))
        out = masked_block_mass(logits, [(0, 5)], [np.zeros((2, 5))])
        np.testing.assert_array_equal(out, np.zeros(2))


# ----------------------------------------------------------------------
# In-place optimisers
# ----------------------------------------------------------------------
class TestInPlaceOptimizers:
    def _reference_adam_step(self, data, grad, first, second, step, lr=0.1,
                             beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
        if wd:
            grad = grad + wd * data
        first = beta1 * first + (1 - beta1) * grad
        second = beta2 * second + (1 - beta2) * grad ** 2
        corrected_first = first / (1 - beta1 ** step)
        corrected_second = second / (1 - beta2 ** step)
        return (data - lr * corrected_first / (np.sqrt(corrected_second) + eps),
                first, second)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_matches_reference_formula(self, weight_decay):
        rng = np.random.default_rng(11)
        parameter = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        optimizer = nn.Adam([parameter], lr=0.1, weight_decay=weight_decay)
        data = parameter.data.copy()
        first = np.zeros_like(data)
        second = np.zeros_like(data)
        for step in range(1, 4):
            grad = rng.normal(size=(4, 3))
            parameter.grad = grad.copy()
            optimizer.step()
            data, first, second = self._reference_adam_step(
                data, grad, first, second, step, wd=weight_decay)
            np.testing.assert_allclose(parameter.data, data, rtol=1e-12, atol=1e-12)

    def test_adam_updates_in_place(self):
        parameter = Tensor(np.ones((8, 8)), requires_grad=True)
        buffer_before = parameter.data
        optimizer = nn.Adam([parameter], lr=0.1)
        parameter.grad = np.ones((8, 8))
        optimizer.step()
        assert parameter.data is buffer_before  # no rebinding, views stay live

    @pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 0.0),
                                                       (0.9, 0.01)])
    def test_sgd_matches_reference_formula(self, momentum, weight_decay):
        rng = np.random.default_rng(12)
        parameter = Tensor(rng.normal(size=(5,)), requires_grad=True)
        optimizer = nn.SGD([parameter], lr=0.05, momentum=momentum,
                           weight_decay=weight_decay)
        data = parameter.data.copy()
        velocity = np.zeros_like(data)
        for _ in range(3):
            grad = rng.normal(size=(5,))
            parameter.grad = grad.copy()
            optimizer.step()
            effective = grad + weight_decay * data
            if momentum:
                velocity = momentum * velocity + effective
                update = velocity
            else:
                update = effective
            data = data - 0.05 * update
            np.testing.assert_allclose(parameter.data, data, rtol=1e-12, atol=1e-12)

    def test_sgd_leaves_gradient_unchanged(self):
        parameter = Tensor(np.ones(4), requires_grad=True)
        optimizer = nn.SGD([parameter], lr=0.1)
        grad = np.full(4, 2.0)
        parameter.grad = grad
        optimizer.step()
        np.testing.assert_array_equal(grad, np.full(4, 2.0))

    def test_clip_grad_norm_scales_in_place(self):
        parameter = Tensor(np.zeros(3), requires_grad=True)
        parameter.grad = np.array([3.0, 4.0, 0.0])
        grad_buffer = parameter.grad
        norm = nn.clip_grad_norm([parameter], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert parameter.grad is grad_buffer
        np.testing.assert_allclose(np.linalg.norm(parameter.grad), 1.0)


# ----------------------------------------------------------------------
# One-pass vectorised translation
# ----------------------------------------------------------------------
class TestTranslateBatch:
    @pytest.fixture(scope="class")
    def table(self):
        return make_census(scale=0.04, seed=0)

    def _reference_arrays(self, codec, queries):
        batch = len(queries)
        shape = (batch, codec.table.num_columns, codec.max_predicates)
        values = np.full(shape, -1, dtype=np.int64)
        ops = np.full(shape, -1, dtype=np.int64)
        for qi, query in enumerate(queries):
            for ci, preds in codec.canonical_predicates(query).items():
                for slot, canonical in enumerate(preds):
                    values[qi, ci, slot] = canonical.code
                    ops[qi, ci, slot] = canonical.op_index
        return values, ops

    def _reference_masks(self, codec, queries):
        masks = [np.ones((len(queries), c.num_distinct))
                 for c in codec.table.columns]
        for qi, query in enumerate(queries):
            for predicate in query.predicates:
                ci = codec.table.column_index(predicate.column)
                masks[ci][qi] *= predicate.valid_value_mask(codec.table.column(ci))
        return masks

    def _check(self, codec, queries):
        values, ops, masks = codec.translate_batch(queries)
        ref_values, ref_ops = self._reference_arrays(codec, queries)
        ref_masks = self._reference_masks(codec, queries)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(ops, ref_ops)
        for ci, mask in enumerate(masks):
            if mask is None:
                assert np.all(ref_masks[ci] == 1.0)
            else:
                np.testing.assert_array_equal(np.asarray(mask), ref_masks[ci])

    @pytest.mark.parametrize("maker,seed", [
        (make_random_workload, 7), (make_inworkload, 9)])
    def test_matches_scalar_path_single_predicate(self, table, maker, seed):
        codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,)))
        self._check(codec, maker(table, num_queries=150, seed=seed).queries)

    def test_matches_scalar_path_multi_predicate(self, table):
        codec = QueryCodec(table, DuetConfig(
            hidden_sizes=(16,), multi_predicate=True, max_predicates_per_column=2))
        workload = make_multi_predicate_workload(table, num_queries=150, seed=11)
        self._check(codec, workload.queries)

    def test_edge_cases(self, table):
        codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,)))
        column = table.columns[0]
        self._check(codec, [
            Query.from_triples([]),
            Query.from_triples([(column.name, ">=", column.distinct_values[0])]),
            Query.from_triples([(column.name, "=", 999999)]),
            Query.from_triples([(column.name, "<", column.distinct_values[0])]),
            Query.from_triples([(column.name, "<=", column.distinct_values[-1])]),
        ])

    def test_whole_domain_only_column_keeps_none_sentinel(self, table):
        """A predicate covering the whole domain constrains nothing: its
        column must keep the None sentinel (exact factor 1, no softmax)."""
        codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,)))
        column = table.columns[0]
        _, _, masks = codec.translate_batch(
            [Query.from_triples([(column.name, ">=", column.distinct_values[0])])])
        assert all(mask is None for mask in masks)

    def test_interval_cache_stays_correct_on_repeats(self, table):
        codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,)))
        queries = make_random_workload(table, num_queries=80, seed=13).queries
        for _ in range(2):  # second round is fully cache-hit
            self._check(codec, queries)

    def test_slot_overflow_raises_unless_disabled(self, table):
        codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,)))
        column = table.columns[0]
        query = Query.from_triples([
            (column.name, ">=", column.distinct_values[2]),
            (column.name, "<=", column.distinct_values[4])])
        with pytest.raises(ValueError, match="at most 1"):
            codec.translate_batch([query])
        _, _, masks = codec.translate_batch([query], enforce_slots=False)
        np.testing.assert_array_equal(
            np.asarray(masks[0][0]),
            self._reference_masks(codec, [query])[0][0])
