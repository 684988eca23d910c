"""Differential tests of the batch translate and the cache key.

``QueryCodec.translate_batch`` and ``QueryKeyEncoder.key`` share one cached
predicate walk.  Both are checked here against oracles built independently
from the per-predicate reference semantics: ``QueryCodec.canonicalize`` for
the ``(op, code)`` slots, ``Query.code_intervals`` for the intervals and
the key's equivalence classes, and ``Predicate.valid_value_mask`` products
for the dense masks.  Seeded random queries cover absent literals,
unsatisfiable conjunctions, whole-domain predicates, string and float
literals and repeated literals (cache hits), at serving and offline batch
sizes, with the slot budget enforced and not.
"""

import numpy as np
import pytest

from repro.core import DuetConfig, QueryCodec
from repro.data import Table, make_census, make_dmv
from repro.serving import QueryKeyEncoder
from repro.workload import (Operator, Predicate, Query, WorkloadConfig,
                            WorkloadGenerator)

OPERATORS = list(Operator)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    return Table.from_dict("walk", {
        "ints": rng.choice([10, 20, 30, 40, 50, 60, 70], size=400),
        "strs": rng.choice(["ant", "bee", "cat", "dog"], size=400),
        "floats": rng.choice([0.5, 1.25, 2.0, 3.75, 8.5], size=400),
        "wide": rng.integers(0, 60, size=400),
        "single": np.full(400, 7),
    })


def _literal_pool(column) -> list:
    """Present values, absent in-range values, values past both ends."""
    values = list(column.distinct_values.tolist())
    if isinstance(values[0], str):
        absent = ["aa", "bat", "cow", "zzz", ""]
    else:
        low, high = float(values[0]), float(values[-1])
        absent = [low - 1, high + 1, (values[0] + values[-1]) / 2 + 0.125]
        if len(values) > 1:
            absent.append((values[0] + values[1]) / 2)
    return values + absent


def _random_queries(table, count, max_predicates, seed) -> list[Query]:
    """Queries with up to ``max_predicates`` predicates per column."""
    rng = np.random.default_rng(seed)
    pools = [_literal_pool(column) for column in table.columns]
    queries = []
    for _ in range(count):
        predicates = []
        for index in rng.permutation(table.num_columns)[:rng.integers(0, 4)]:
            column = table.columns[index]
            for _ in range(rng.integers(1, max_predicates + 1)):
                operator = OPERATORS[rng.integers(len(OPERATORS))]
                literal = pools[index][rng.integers(len(pools[index]))]
                predicates.append(Predicate(column.name, operator, literal))
        order = rng.permutation(len(predicates))
        queries.append(Query([predicates[i] for i in order]))
    return queries


def _slot_counts(codec, query) -> dict[int, int]:
    """Kept canonical predicates per column, from ``canonicalize`` alone."""
    counts: dict[int, int] = {}
    for predicate in query.predicates:
        if codec.canonicalize(predicate) is not None:
            column = codec.table.column_index(predicate.column)
            counts[column] = counts.get(column, 0) + 1
    return counts


def _oracle(codec, queries):
    """``(values, ops, per-query interval maps, masks)``, slots past the
    budget dropped."""
    table = codec.table
    budget = codec.max_predicates
    shape = (len(queries), table.num_columns, budget)
    values = np.full(shape, -1, dtype=np.int64)
    ops = np.full(shape, -1, dtype=np.int64)
    masks = [np.ones((len(queries), column.num_distinct)) for column in table.columns]
    for row, query in enumerate(queries):
        used: dict[int, int] = {}
        for predicate in query.predicates:
            column = table.column_index(predicate.column)
            masks[column][row] *= predicate.valid_value_mask(table.column(column))
            canonical = codec.canonicalize(predicate)
            if canonical is None:
                continue
            slot = used.get(column, 0)
            used[column] = slot + 1
            if slot < budget:
                values[row, column, slot] = canonical.code
                ops[row, column, slot] = canonical.op_index
    intervals = [query.code_intervals(table) for query in queries]
    return values, ops, intervals, masks


def _overflow_message(codec, queries) -> str | None:
    """The text of the slot-overflow error, or ``None`` when all fit.

    Names the largest (query, column) group, the first in query then
    column order among equals.
    """
    groups = [(-count, row, column)
              for row, query in enumerate(queries)
              for column, count in _slot_counts(codec, query).items()
              if count > codec.max_predicates]
    if not groups:
        return None
    count, _, column = min(groups)
    return (f"query has {-count} predicates on column "
            f"{codec.table.column(column).name!r} but the model was configured "
            f"for at most {codec.max_predicates}; enable multi_predicate / raise "
            f"max_predicates_per_column")


def _check(codec, queries, enforce_slots):
    values, ops, intervals = codec.translate_batch(queries, enforce_slots=enforce_slots)
    ref_values, ref_ops, ref_intervals, ref_masks = _oracle(codec, queries)
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(ops, ref_ops)
    assert values.dtype == ops.dtype == np.int64
    assert intervals.low.dtype == intervals.high.dtype == np.int64
    constrained = sorted({column for reference in ref_intervals for column in reference})
    np.testing.assert_array_equal(intervals.columns, constrained)
    last = codec._ndv - 1
    for row, reference in enumerate(ref_intervals):
        for slot, column in enumerate(constrained):
            low, high = intervals.low[row, slot], intervals.high[row, slot]
            if column not in reference:
                assert (low, high) == (0, last[column])
            elif reference[column] == (1, 0):
                assert low > high
            else:
                assert (low, high) == reference[column]
    for column, mask in enumerate(intervals.dense_masks()):
        if mask is None:
            np.testing.assert_array_equal(ref_masks[column], 1.0)
        else:
            np.testing.assert_array_equal(mask, ref_masks[column])


@pytest.mark.parametrize("multi", [False, True], ids=["single", "multi"])
@pytest.mark.parametrize("batch", [1, 2, 64, 2000])
def test_translate_matches_oracle(table, multi, batch):
    config = DuetConfig(hidden_sizes=(16,), multi_predicate=multi,
                        max_predicates_per_column=2)
    codec = QueryCodec(table, config)
    queries = _random_queries(table, max(batch, 64) * 2, codec.max_predicates + 1,
                              seed=batch + 10 * multi)
    fitting = [query for query in queries
               if max(_slot_counts(codec, query).values(), default=0)
               <= codec.max_predicates]
    chunk = queries[:batch]
    for _ in range(2):  # the second round is all cache hits
        _check(codec, chunk, enforce_slots=False)
        _check(codec, fitting[:batch], enforce_slots=True)
        message = _overflow_message(codec, chunk)
        if message is None:
            _check(codec, chunk, enforce_slots=True)
        else:
            with pytest.raises(ValueError) as raised:
                codec.translate_batch(chunk)
            assert str(raised.value) == message


def test_translate_edge_cases(table):
    codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,), multi_predicate=True,
                                         max_predicates_per_column=2))
    queries = [
        Query([]),
        Query.from_triples([("ints", "=", 35)]),                       # absent value
        Query.from_triples([("ints", ">", 70)]),                       # past the end
        Query.from_triples([("ints", "<", 10)]),                       # before the start
        Query.from_triples([("ints", ">=", 40), ("ints", "<", 30)]),   # unsatisfiable
        Query.from_triples([("ints", ">=", 10), ("strs", "<=", "dog")]),  # whole domain
        Query.from_triples([("single", "=", 7)]),                      # NDV-1 column
        Query.from_triples([("strs", ">", "bat"), ("floats", "<=", 2.0)]),
        Query.from_triples([("floats", "=", 2), ("floats", ">=", 1.25)]),  # int literal
    ]
    for _ in range(2):
        _check(codec, queries, enforce_slots=True)


def test_unknown_column_raises_key_error(table):
    codec = QueryCodec(table, DuetConfig(hidden_sizes=(16,)))
    keys = QueryKeyEncoder(table)
    query = Query.from_triples([("nope", "=", 1)])
    with pytest.raises(KeyError, match="no column 'nope'"):
        codec.translate_batch([query])
    with pytest.raises(KeyError, match="no column 'nope'"):
        keys.key(query)


def _reference_key(table, query) -> tuple:
    return tuple(sorted(query.code_intervals(table).items()))


def _partition(keys) -> list[int]:
    """Each item's group label: the index of its group's first member."""
    first: dict = {}
    return [first.setdefault(key, index) for index, key in enumerate(keys)]


@pytest.mark.parametrize("dataset", ["census", "dmv", "walk"])
def test_keys_partition_like_code_intervals(table, dataset):
    if dataset == "census":
        data = make_census(scale=0.1)
    elif dataset == "dmv":
        data = make_dmv(scale=0.0008)
    else:
        data = table
    if dataset == "walk":
        queries = _random_queries(data, 5000, 3, seed=5)
    else:
        generator = WorkloadGenerator(data, WorkloadConfig(seed=3))
        multi = WorkloadGenerator(data, WorkloadConfig(seed=4, max_predicates_per_column=2))
        queries = ([generator.generate_query() for _ in range(4000)]
                   + [multi.generate_query() for _ in range(1000)])
        # Respellings of the same selections must land in the same group.
        queries += [Query(reversed(query.predicates)) for query in queries[:500]]
    keys = QueryKeyEncoder(data)
    new = [keys.key(query) for query in queries]
    assert _partition(new) == _partition([_reference_key(data, query)
                                          for query in queries])
    assert [keys.key(query) for query in queries] == new  # cache hits agree


def test_namespaced_keys_differ_across_versions(table):
    query = Query.from_triples([("ints", ">=", 30), ("strs", "=", "cat")])
    plain = QueryKeyEncoder(table).key(query)
    first = QueryKeyEncoder(table, namespace=("walk", "v1", 1)).key(query)
    second = QueryKeyEncoder(table, namespace=("walk", "v2", 2)).key(query)
    assert len({plain, first, second}) == 3


def test_concurrent_keys_under_cache_clears(table, monkeypatch):
    """Caller threads share one encoder's literal cache; with a cache small
    enough to be cleared over and over, every thread still gets each
    query's exact key."""
    import sys
    import threading

    from repro.core import encoding

    monkeypatch.setattr(encoding, "_LITERAL_CACHE_LIMIT", 3)
    queries = _random_queries(table, 300, 2, seed=21)
    expected = [QueryKeyEncoder(table).key(query) for query in queries]
    keys = QueryKeyEncoder(table)
    mismatches = []

    def client(offset):
        for round_ in range(3):
            for index in range(len(queries)):
                index = (index * 7 + offset + round_) % len(queries)
                if keys.key(queries[index]) != expected[index]:
                    mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
