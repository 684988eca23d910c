"""Serving walkthrough: train -> register -> serve -> load-test.

Run with::

    python examples/serve_estimates.py

The script trains Duet on the synthetic Census stand-in, persists the model
through the :class:`~repro.serving.ModelRegistry` (together with the compile
options the service should serve it with), restarts an estimator from the
registry alone (no training state, no data tuples), and drives the
:class:`~repro.serving.EstimationService` with a concurrent load test in
three configurations, all served through the persisted float32 plan: naive
one query per pass, micro-batched, and micro-batched with the estimate
cache on top.

The final configuration runs with request tracing sampled at 100% and plan
profiling on, and the script exits by dumping the service's Prometheus-style
metrics exposition plus the span trees of the three slowest traced requests
— where one request actually spent its time, stage by stage.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import ObsConfig, ServingConfig
from repro.data import make_census
from repro.eval import format_serving_table, run_load_test, train_duet
from repro.nn import PlanOptions
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_inworkload, make_random_workload


def main() -> None:
    # 1. Train: hybrid Duet on the synthetic Census stand-in.
    table = make_census(scale=0.1, seed=0)
    print(f"table {table.name!r}: {table.num_rows} rows, {table.num_columns} columns")
    trained = train_duet(table, make_inworkload(table, num_queries=600, seed=42),
                         epochs=3)

    # 2. Register: persist parameters + config + schema under (dataset,
    #    version), plus the plan options serving should compile with.
    registry = ModelRegistry(tempfile.mkdtemp(prefix="duet-registry-"))
    entry = registry.save(trained.model, dataset="census",
                          metadata={"trained_on": f"{table.num_rows} rows"},
                          compile_options=PlanOptions(dtype="float32"))
    print(f"registered {entry.dataset}/{entry.version} "
          f"({entry.num_parameters} parameters) under {registry.root}")

    # 3. Reload: the registry alone is enough to serve (schema + config +
    #    weights + compile options — the estimator comes back compiled).
    reloaded = registry.load_estimator("census")
    print(f"reloaded estimator is compiled: {reloaded.compiled} "
          f"({reloaded.compile_options})")
    held_out = make_random_workload(table, num_queries=200, seed=99)
    original = trained.estimator.estimate_batch(held_out.queries)
    served = reloaded.estimate_batch(held_out.queries)
    worst = float(np.max(np.abs(served - original) / np.maximum(original, 1.0)))
    print(f"float32 plan matches the float64 tape within {worst:.2e} relative")

    # 4. Serve under load: replay the workload from 8 concurrent threads.
    #    The last mode runs fully traced and profiled (tracing at 100% is
    #    for the demonstration — production samples at a few percent).
    traced = ObsConfig(trace_sample_rate=1.0, trace_keep_slowest=8,
                       profile_plan_stages=True)
    reports = []
    modes = [
        ("naive", ServingConfig(micro_batching=False, cache_capacity=0)),
        ("micro-batched", ServingConfig(cache_capacity=0)),
        ("batched+cache", ServingConfig(obs=traced)),
    ]
    last_service = None
    for mode, config in modes:
        with EstimationService.from_registry(registry, "census",
                                             config=config) as service:
            reports.append(run_load_test(service, held_out, concurrency=8,
                                         num_requests=2_000, mode=mode, seed=0))
            last_service = service
    print()
    print(format_serving_table(reports, title="serving throughput (8 threads)"))
    print(f"\nmicro-batching speedup over naive: "
          f"{reports[1].qps / reports[0].qps:.2f}x; "
          f"with cache: {reports[2].qps / reports[0].qps:.2f}x")

    # 5. Observability: the traced run's metrics and worst span trees.
    print("\nmetrics exposition (traced run, excerpt):")
    for line in last_service.metrics.exposition().splitlines():
        if line.startswith(("repro_requests_total", "repro_batches_total",
                            "repro_cache_entries", "repro_plan_buffer_bytes",
                            "repro_request_latency_seconds_count")):
            print(f"  {line}")

    profile = last_service.profile_report()
    made = sum(stage["seconds"] for stage in profile["made_stages"])
    phases = ", ".join(f"{name}={stats['seconds'] * 1e3:.1f}ms"
                       for name, stats in profile["phases"].items())
    print(f"\nplan profile: {phases}; MADE stage total {made * 1e3:.1f}ms "
          f"across {len(profile['made_stages'])} fused stages")

    print("\ntop-3 slowest traced requests:")
    for trace in last_service.tracer.slowest(3):
        print()
        for line in trace.format_tree().splitlines():
            print(f"  {line}")


if __name__ == "__main__":
    main()
