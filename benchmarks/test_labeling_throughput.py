"""Ground-truth labeling throughput guard.

Every experiment labels its workloads with exact cardinalities before any
model runs, so labeling speed bounds the whole suite.  This guard pins the
chunked ``true_cardinalities`` implementation against the naive per-query
executor loop: the vectorised path must not be slower.  At this test's
size (DMV scale 0.004, 400 queries) it leads by only ~1.1-1.2x, so both
paths are timed as the best of alternating rounds.

The append-then-label and delete-then-label cases guard the data
lifecycle's incremental path: after a mutation, ``true_cardinalities_delta``
scans only the churned rows (appended counts added, tombstoned counts
subtracted), so relabeling a workload costs a fraction of a full rescan —
the labeling analogue of fine-tuning instead of retraining.  The delete
case also records the ``BENCH_labeling.json`` snapshot so later sessions
can track the labeling-throughput trajectory.
"""

import time

import numpy as np

from conftest import record_bench_snapshot

from repro.data import ColumnStore, make_dmv
from repro.workload import (
    cardinality,
    make_random_workload,
    true_cardinalities,
    true_cardinalities_delta,
)


#: alternating timing rounds per labeling path; each keeps its best
ROUNDS = 5


def _timed(function):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def test_chunked_labeling_beats_per_query_loop():
    table = make_dmv(scale=0.004, seed=0)
    workload = make_random_workload(table, num_queries=400, seed=17, label=False)

    def per_query():
        return np.array([cardinality(table, query) for query in workload],
                        dtype=np.int64)

    # One timing of either path can land on a burst of host contention.
    naive_seconds = chunked_seconds = float("inf")
    for _ in range(ROUNDS):
        naive, seconds = _timed(per_query)
        naive_seconds = min(naive_seconds, seconds)
        chunked, seconds = _timed(lambda: true_cardinalities(table, workload.queries))
        chunked_seconds = min(chunked_seconds, seconds)

    np.testing.assert_array_equal(chunked, naive)
    print(f"\nlabeling {len(workload)} queries on {table.num_rows} rows, best of "
          f"{ROUNDS} alternating: per-query {naive_seconds:.3f}s vs chunked "
          f"{chunked_seconds:.3f}s ({naive_seconds / max(chunked_seconds, 1e-9):.1f}x)")
    # Guard: chunked labeling must not regress behind the per-query loop.
    assert chunked_seconds <= naive_seconds


def test_delta_labeling_beats_full_relabel(benchmark):
    """After a 10% append, delta labeling must be >=2x a full rescan."""
    table = make_dmv(scale=0.004, seed=0)
    store = ColumnStore.from_table(table)
    base = store.snapshot()
    workload = make_random_workload(base, num_queries=400, seed=17, label=False)
    base_counts = true_cardinalities(base, workload.queries)

    # Append 10% more rows drawn from the existing domains (the fast path a
    # steady-state ingest hits); literals stay comparable across versions.
    rng = np.random.default_rng(42)
    append_rows = table.num_rows // 10
    store.append({
        name: base.column(name).distinct_values[
            rng.integers(0, base.column(name).num_distinct, size=append_rows)]
        for name in base.column_names
    })
    snapshot = store.snapshot()
    delta = store.delta(base)

    started = time.perf_counter()
    full = true_cardinalities(snapshot, workload.queries)
    full_seconds = time.perf_counter() - started

    counts = benchmark(true_cardinalities_delta, delta, workload.queries,
                       base_counts)
    np.testing.assert_array_equal(counts, full)
    delta_seconds = benchmark.stats.stats.mean
    print(f"\nrelabeling {len(workload)} queries after a {append_rows}-row "
          f"append on {snapshot.num_rows} rows: full {full_seconds:.3f}s vs "
          f"delta {delta_seconds:.3f}s "
          f"({full_seconds / max(delta_seconds, 1e-9):.1f}x)")
    # Guard: scanning 10% of the rows must save at least half the work.
    assert delta_seconds * 2 <= full_seconds


def test_delta_labeling_with_deletes_beats_full_rescan(benchmark):
    """After a 10% delete, delta labeling must be >=2x a full rescan.

    The delete side of the incremental-labeling guard: the delta carries
    only the tombstoned rows, so rolling the counts forward subtracts one
    scan of ~10% of the table instead of re-scanning the ~90% that
    survived — and stays bit-for-bit equal to the full rescan.
    """
    table = make_dmv(scale=0.004, seed=0)
    store = ColumnStore.from_table(table)
    base = store.snapshot()
    workload = make_random_workload(base, num_queries=400, seed=17, label=False)
    base_counts = true_cardinalities(base, workload.queries)

    rng = np.random.default_rng(42)
    delete_rows = table.num_rows // 10
    store.delete(rng.choice(base.num_rows, size=delete_rows, replace=False))
    snapshot = store.snapshot()
    delta = store.delta(base)
    assert delta.removed_rows == delete_rows and delta.appended_rows == 0

    started = time.perf_counter()
    full = true_cardinalities(snapshot, workload.queries)
    full_seconds = time.perf_counter() - started

    counts = benchmark(true_cardinalities_delta, delta, workload.queries,
                       base_counts)
    np.testing.assert_array_equal(counts, full)
    delta_seconds = benchmark.stats.stats.mean
    speedup = full_seconds / max(delta_seconds, 1e-9)
    print(f"\nrelabeling {len(workload)} queries after a {delete_rows}-row "
          f"delete on {base.num_rows} rows: full {full_seconds:.3f}s vs "
          f"delta {delta_seconds:.3f}s ({speedup:.1f}x)")
    record_bench_snapshot("labeling", {
        "full_rescan_ms": 1e3 * full_seconds,
        "delta_delete_ms": 1e3 * delta_seconds,
        "delete_speedup": speedup,
        "num_queries": len(workload),
        "table_rows": base.num_rows,
        "deleted_rows": delete_rows,
    })
    # Guard: scanning the 10% tombstoned rows must save at least half the
    # work of rescanning the 90% live view.
    assert delta_seconds * 2 <= full_seconds
