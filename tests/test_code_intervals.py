"""Code intervals: the zero-out representation of a translated query batch.

Every case checks three things against each other: the intervals'
dense masks against masks built independently from each predicate's
``valid_value_mask`` (the semantics the dense-mask translation had), the
compiled float64 interval kernel against the tape's dense ``softmax ·
mask`` product over those independent masks, and the expected factor.
Also bounds the memory of a hybrid trainer's pre-translated workload.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    CodeIntervals,
    CompiledDuetModel,
    DuetConfig,
    DuetModel,
    DuetTrainer,
    MPSNConfig,
)
from repro.data import Table
from repro.nn import PlanOptions, no_grad
from repro.workload import Query, make_random_workload

CONFIG = DuetConfig(hidden_sizes=(24, 24), multi_predicate=True,
                    max_predicates_per_column=2,
                    mpsn=MPSNConfig(kind="mlp", hidden_size=8), seed=0)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    return Table.from_dict("intervals", {
        "a": rng.choice([10, 20, 30, 40, 50, 60], size=300),
        "b": rng.choice(["p", "q", "r", "s"], size=300),
        "c": rng.integers(0, 40, size=300),
    })


@pytest.fixture(scope="module")
def model(table):
    return DuetModel(table, CONFIG)


def _reference_masks(codec, queries):
    """Dense masks from each predicate's own valid-value mask (all-ones rows
    for a query that leaves the column free)."""
    masks = [np.ones((len(queries), column.num_distinct))
             for column in codec.table.columns]
    for row, query in enumerate(queries):
        for predicate in query.predicates:
            index = codec.table.column_index(predicate.column)
            masks[index][row] *= predicate.valid_value_mask(codec.table.column(index))
    return masks


def _check(model, queries) -> tuple[CodeIntervals, np.ndarray]:
    """Intervals agree with the reference masks, the kernel with the tape.

    Returns the intervals and the compiled selectivities.
    """
    codec = model.codec
    values, ops, intervals = codec.translate_batch(queries)
    reference = _reference_masks(codec, queries)
    for column, mask in enumerate(intervals.dense_masks()):
        if mask is None:
            assert column not in intervals.columns
            np.testing.assert_array_equal(reference[column], 1.0)
        else:
            np.testing.assert_array_equal(mask, reference[column])
    free = np.ones((len(queries), intervals.columns.size), dtype=bool)
    for row, query in enumerate(queries):
        for predicate in query.predicates:
            index = codec.table.column_index(predicate.column)
            if index in intervals.columns:
                free[row, np.searchsorted(intervals.columns, index)] = False
    full = model.codec._ndv[intervals.columns] - 1
    assert (intervals.low[free] == 0).all()
    assert (intervals.high == np.broadcast_to(full, intervals.high.shape))[free].all()

    plan = CompiledDuetModel(model, PlanOptions(dtype="float64"))
    served = plan.selectivity_from_logits(plan.logits(plan.encode(values, ops)),
                                          intervals)
    model.eval()
    with no_grad():
        outputs = model.forward(values, ops)
        tape = model.selectivity_from_outputs(outputs, reference).numpy()
    np.testing.assert_allclose(served, tape, rtol=1e-12)
    return intervals, served


class TestIntervalSemantics:
    def test_equality_on_an_absent_value_is_an_empty_interval(self, model):
        intervals, served = _check(model, [Query.from_triples([("a", "=", 15)])])
        assert intervals.columns.tolist() == [0]
        assert intervals.low[0, 0] > intervals.high[0, 0]
        assert served[0] == 0.0

    def test_whole_domain_predicate_leaves_the_column_free(self, model):
        query = Query.from_triples([("a", ">=", 10), ("b", "<=", "s")])
        intervals, served = _check(model, [query])
        assert intervals.columns.size == 0
        assert served[0] == 1.0

    def test_two_predicates_with_an_empty_intersection(self, model):
        query = Query.from_triples([("c", ">=", 30), ("c", "<", 12)])
        intervals, served = _check(model, [query])
        assert intervals.columns.tolist() == [2]
        assert intervals.low[0, 0] > intervals.high[0, 0]
        assert served[0] == 0.0

    def test_two_predicates_intersect_to_one_interval(self, model, table):
        query = Query.from_triples([("c", ">", 5), ("c", "<=", 20)])
        intervals, _ = _check(model, [query])
        codes = table.column("c").distinct_values
        admitted = np.flatnonzero((codes > 5) & (codes <= 20))
        assert (intervals.low[0, 0], intervals.high[0, 0]) == (admitted[0], admitted[-1])

    def test_one_query_constrains_a_column_another_leaves_free(self, model, table):
        queries = [Query.from_triples([("a", "<", 40)]),
                   Query.from_triples([("b", "=", "q"), ("c", ">=", 7)])]
        intervals, _ = _check(model, queries)
        assert intervals.columns.tolist() == [0, 1, 2]
        # Query 1 leaves ``a`` free, query 0 leaves ``b`` and ``c`` free.
        assert (intervals.low[1, 0], intervals.high[1, 0]) == (
            0, table.column("a").num_distinct - 1)
        assert (intervals.low[0, 1:] == 0).all()

    def test_empty_query(self, model):
        intervals, served = _check(model, [Query.from_triples([])])
        assert intervals.columns.size == 0
        assert intervals.low.shape == (1, 0)
        assert served[0] == 1.0
        # Beside a constraining query, its row spans every whole domain.
        _check(model, [Query.from_triples([]), Query.from_triples([("a", "=", 20)])])

    def test_batch_with_no_constrained_column(self, model):
        queries = [Query.from_triples([]),
                   Query.from_triples([("a", "<=", 60)]),
                   Query.from_triples([("c", ">=", 0)])]
        intervals, served = _check(model, queries)
        assert intervals.columns.size == 0
        np.testing.assert_array_equal(served, np.ones(3))
        assert all(mask is None for mask in intervals.dense_masks())

    def test_random_workload(self, model, table):
        _check(model, make_random_workload(table, num_queries=120, seed=5).queries)

    def test_take_keeps_columns_and_selects_rows(self, model, table):
        queries = make_random_workload(table, num_queries=20, seed=6).queries
        _, _, intervals = model.codec.translate_batch(queries)
        rows = np.array([3, 0, 17])
        taken = intervals.take(rows)
        np.testing.assert_array_equal(taken.columns, intervals.columns)
        for mask, whole in zip(taken.dense_masks(), intervals.dense_masks()):
            assert (mask is None) == (whole is None)
            if mask is not None:
                np.testing.assert_array_equal(mask, whole[rows])


def _retained_by_trainer(model, table, workload, config):
    """Bytes still allocated (and the peak) after building a trainer."""
    tracemalloc.start()
    try:
        trainer = DuetTrainer(model, table, training_workload=workload, config=config)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trainer, current, peak


def test_pretranslated_workload_is_intervals_not_dense_masks():
    """A hybrid trainer keeps its workload as O(queries × columns) code
    intervals: as dense masks it would hold queries × ΣNDV float64s."""
    rng = np.random.default_rng(1)
    rows = 20_000
    table = Table.from_dict("wide", {
        "big": rng.permutation(rows),
        "small": rng.integers(0, 5, size=rows),
        "mid": rng.integers(0, 50, size=rows),
    })
    workload = make_random_workload(table, num_queries=400, seed=2)
    assert workload.is_labeled
    num_queries, num_columns = len(workload.queries), table.num_columns
    dense_bytes = num_queries * sum(table.cardinalities) * 8  # ~64 MB

    config = DuetConfig(hidden_sizes=(8,), lambda_query=0.5, seed=0)
    data_only = DuetConfig(hidden_sizes=(8,), lambda_query=0.0, seed=0)
    # Warm one-off allocations (imports, first-call caches) on a twin.
    DuetTrainer(DuetModel(table, config), table, training_workload=workload,
                config=config)
    base, base_current, base_peak = _retained_by_trainer(
        DuetModel(table, data_only), table, workload, data_only)
    trainer, current, peak = _retained_by_trainer(
        DuetModel(table, config), table, workload, config)
    assert trainer.hybrid and not base.hybrid

    values, ops, intervals, cards = trainer._query_arrays
    assert isinstance(intervals, CodeIntervals)
    held = sum(array.nbytes for array in (values, ops, intervals.low,
                                          intervals.high, cards))
    # values, ops, low, high: 4 int64s per (query, column) with one slot;
    # the rest covers cardinalities, the codec's literal cache, temporaries.
    budget = num_queries * num_columns * 128
    assert held <= budget
    # The hybrid trainer's extra memory, retained and at its peak, stays
    # within the same O(queries × columns) budget, far below dense masks.
    assert current - base_current <= budget < dense_bytes / 100
    assert peak - base_peak <= budget
    # A sampled step still sees dense masks of just its own queries.
    _, _, masks, _ = trainer._query_batch()
    widths = [None if mask is None else mask.shape for mask in masks]
    batch = min(config.query_batch_size, num_queries)
    assert widths[0] == (batch, table.column("big").num_distinct)
