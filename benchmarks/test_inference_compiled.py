"""Compiled grad-free inference vs the autograd tape path.

Not a paper table — this benchmark covers the compiled inference engine
(:mod:`repro.nn.inference` + :class:`repro.core.CompiledDuetModel`): the
paper's DMV configuration (high-NDV table, 512-256-512-128-1024 MADE) is
replayed in serving-sized micro-batches through three execution paths:

* ``tape``             — the autograd ``Tensor`` path (training oracle);
* ``compiled-float64`` — lowered plans, masks folded, fused interval
  selectivity, reusable buffers;
* ``compiled-float32`` — the same plans in single precision (the serving
  default).

Asserted shape: the compiled float32 plan sustains >= 3x the tape path's
batch-estimation throughput (the ISSUE's acceptance bar), float64 compiled
is materially faster than the tape too, and both agree with the tape to
within the documented tolerances (1e-6 relative for float64 — measured
agreement is ~1e-15).  The run also records/compares the
``BENCH_inference.json`` snapshot so later sessions can track the
throughput trajectory.
"""

import pytest

from conftest import record_bench_snapshot

from repro.eval import compiled_inference_cost

MICRO_BATCH = 8      # what the serving micro-batcher typically coalesces
NUM_QUERIES = 1024


@pytest.fixture(scope="module")
def result():
    return compiled_inference_cost(dataset="dmv", batch_size=MICRO_BATCH,
                                   num_queries=NUM_QUERIES, repeats=3)


def test_compiled_throughput_and_equivalence(result):
    print()
    print(result.render())
    print(f"max relative error vs tape: float64 {result.max_rel_error_float64:.2e}, "
          f"float32 {result.max_rel_error_float32:.2e}")

    tape = result.paths["tape"]
    compiled64 = result.paths["compiled-float64"]
    compiled32 = result.paths["compiled-float32"]
    for metrics in (tape, compiled64, compiled32):
        assert metrics["qps"] > 0
        assert metrics["encoding_ms"] >= 0 and metrics["inference_ms"] > 0

    # The acceptance bar: the compiled serving plan sustains >= 3x the tape
    # path's batch-estimation throughput at serving micro-batch sizes.
    assert result.speedup("compiled-float32") >= 3.0
    # Full precision is also materially faster (folded masks, fused zero-out,
    # no per-op graph bookkeeping), just without the halved memory traffic.
    assert result.speedup("compiled-float64") >= 1.5

    # The compiled phase split shifts: inference shrinks, encoding does not
    # grow — the Fig.-7-style breakdown is reported for both paths above.
    assert compiled64["inference_ms"] < tape["inference_ms"]
    assert compiled32["inference_ms"] < tape["inference_ms"]

    # Numerical contract: float64 matches the tape within 1e-6 relative,
    # float32 within single-precision resolution.
    assert result.max_rel_error_float64 < 1e-6
    assert result.max_rel_error_float32 < 5e-4


def test_bench_snapshot_trajectory(result):
    """Record (first run) or compare (later runs) the throughput snapshot.

    The comparison is informational — wall-clock margins are machine
    dependent, so regressions are printed, not asserted; the CI job runs
    this non-blocking and surfaces the report in its log.
    """
    regressions = record_bench_snapshot("inference", result.to_metrics())
    assert isinstance(regressions, list)
