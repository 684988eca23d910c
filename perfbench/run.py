"""The repo benchmark: served Duet estimates under closed-loop load.

Run from the repository root::

    python3 perfbench/run.py --workload dmv-unique-c2 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with spans recorded around each layer's public calls and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads are listed in ``BENCHMARK.json`` and
defined in ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

PROCESS_START = perf_counter()
ROOT = Path(__file__).resolve().parents[1]


def _load_program():
    """Import the program from this checkout's ``src``; ``None`` if absent."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(source))
    import spans
    import workloads
    return spans, workloads


class _Untraced:
    """Stand-in for the span recorder in an untraced run."""

    recording = False

    @staticmethod
    def measure(name, function, *args, **kwargs):
        return function(*args, **kwargs)


def run(spec, seed: int, seconds: float, trace: bool, work: Path, spans, w) -> dict:
    from repro.eval import qerror

    recorder = spans.SpanRecorder() if trace else _Untraced()
    table = spec.make_table()
    probe = w.DistinctQueries(table, w.ACCURACY_SEED)
    probe.extend_to(w.ACCURACY_QUERIES)
    stream = w.DistinctQueries(table, 2 * seed + 1)
    stream.extend_to(w.WARMUP_REQUESTS + 1000)
    queries = stream.queries

    def warm_up(service):
        return w.closed_loop(service, queries,
                             [w.shared_counter(0, w.WARMUP_REQUESTS)] * spec.clients,
                             None)

    # --- set-up, repeated; the last deployment serves the timed phase -----
    if trace:
        recorder.install()
        recorder.recording = True
    setup_seconds = []
    repeats = 1 if trace else w.SETUP_REPEATS
    for attempt in range(repeats):
        started = perf_counter()
        deployment = w.set_up(spec, work / f"setup-{attempt}", warm_up,
                              recorder.measure)
        setup_seconds.append(perf_counter() - started)
        if attempt < repeats - 1:
            deployment.service.close()
            del deployment
            gc.collect()
    service = deployment.service
    warm = deployment.warmup
    initial_version = service.model_version

    # --- request source: one distinct query per request -----------------
    rate = warm.completed / warm.seconds
    stream.extend_to(w.WARMUP_REQUESTS + 1000
                     + int(2 * rate * seconds * (1.5 if trace else 1.0)))
    sources = [w.shared_counter(w.WARMUP_REQUESTS, len(queries))] * spec.clients

    churn = w.Churn(deployment, probe.queries, seed, recorder.measure)
    overhead = None
    if trace:
        overhead = calibrate(recorder, service, queries, sources, seconds / 4, w)

    # --- timed phase -----------------------------------------------------
    misses = None
    if not trace:
        misses = w.MissCounter()
        misses.install()
    gc.collect()
    first_request = perf_counter() - PROCESS_START
    main_from = len(recorder.cache_hits) if trace else 0
    writer = (lambda: churn.run_paced(seconds)) if spec.churn_under_load else None
    try:
        timed = w.closed_loop(service, queries, sources, seconds, beside=writer)
    finally:
        if misses is not None:
            misses.uninstall()
    recorder.recording = trace
    churn.label()
    recorder.recording = False

    # --- output checks ---------------------------------------------------
    rounds_under_load = list(churn.rounds)
    upper = churn.max_rows
    warm_failed = len(warm.errors) + w.out_of_range(warm.estimate, deployment.base.num_rows)
    timed_failed = len(timed.errors) + w.out_of_range(timed.estimate, upper)
    positions = w.sample_positions(len(warm.index), w.ORACLE_WARMUP_SAMPLE)
    warm_failed += w.oracle_check(
        deployment.registry, deployment.dataset,
        [queries[warm.index[p]] for p in positions],
        [warm.estimate[p] for p in positions],
        [{initial_version}] * len(positions))[0]
    positions = w.sample_positions(timed.completed, w.ORACLE_TIMED_SAMPLE)
    oracle_timed, mixed = w.oracle_check(
        deployment.registry, deployment.dataset,
        [queries[timed.index[p]] for p in positions],
        [timed.estimate[p] for p in positions],
        [w.versions_serving(rounds_under_load, initial_version, timed.started[p],
                            timed.started[p] + timed.latency[p])
         for p in positions])
    timed_failed += oracle_timed

    accuracy = np.concatenate([service.estimate_batch(probe.queries[start:start + 64])
                               for start in range(0, len(probe.queries), 64)])
    errors = qerror(accuracy, churn.labels)

    # --- churn rounds after the load, for the read-only workloads -------
    # They exist for refresh_s alone; peak memory is read before them so it
    # stays the served workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorder.recording = trace
    if not spec.churn_under_load:
        for _ in range(spec.rounds):
            churn.run_round()
        churn.label()
    recorder.recording = False
    round_failed = sum(done.error is not None for done in churn.rounds)
    final = probe.queries[:64]
    round_failed += w.oracle_check(
        deployment.registry, deployment.dataset, final,
        service.estimate_batch(final).tolist(),
        [{service.model_version}] * len(final))[0]
    labels_hold = churn.labels_hold()
    service.close()

    # --- workload validity ----------------------------------------------
    if trace:
        looked_up = np.frombuffer(recorder.cache_hits, dtype=np.int8)[main_from:]
        hit_ratio = float(looked_up.mean()) if looked_up.size else 0.0
    else:
        hit_ratio = 1.0 - misses.count / max(timed.attempted, 1)
    valid = hit_ratio <= 0.01
    growth = [done.error for done in churn.rounds
              if done.error and done.error.startswith("DomainGrowthError")]
    if spec.churn_under_load:
        churn_share = 1.0 - len(growth) / max(len(churn.rounds), 1)
        valid = valid and not growth

    # --- report ----------------------------------------------------------
    refresh = [done.refresh_seconds for done in churn.rounds if done.error is None]
    qps, p50, p99, fewest = w.windowed(timed, seconds)
    lines = [
        f"workload {spec.name}: seed {seed}, {spec.clients} closed-loop client(s)"
        + (", 1 churn writer" if spec.churn_under_load else "")
        + f", table {deployment.base.name} ({deployment.base.num_rows} rows), "
        f"MADE {'-'.join(map(str, spec.model_config().hidden_sizes))}",
        f"set-up: {', '.join(f'{s:.3f}' for s in setup_seconds)} s; process start "
        f"to first timed request {first_request:.3f} s",
        f"warm-up: attempted {warm.attempted}, "
        f"failed {warm_failed}",
        f"timed ({timed.seconds:.3f} s): attempted {timed.attempted}, succeeded "
        f"{timed.attempted - timed_failed}, failed {timed_failed} (oracle sample "
        f"{len(positions)}: {oracle_timed} mismatches), error_rate "
        f"{timed_failed / max(timed.attempted, 1):.6f}",
        f"known defect, not counted as failed: {mixed} of the oracle sample were "
        f"torn reads inside a hot-swap (the outgoing plan's selectivity times "
        f"the incoming row count)",
        f"churn rounds: {len(churn.rounds)} ({len(rounds_under_load)} under load), "
        f"failed {round_failed}; delta labels equal a rescan: {labels_hold}",
        f"validity: requests missing the cache: {1.0 - hit_ratio:.4f} "
        f"(hit ratio must be <= 0.01) -> " + ("ok" if valid else "VIOLATED"),
        f"latency samples: {timed.completed} in {w.WINDOWS} slices, the smallest "
        f"{fewest} ({int(fewest * 0.01)} beyond its p99); labeled queries for "
        f"Q-Error: {errors.size}",
        "latency percentiles (ms): " + ", ".join(
            f"p{q:g} {np.percentile(timed.latency, q) * 1e3:.4f}"
            for q in (50, 90, 99, 99.9)),
    ]
    if spec.churn_under_load:
        lines.append(f"validity: rounds without DomainGrowthError: {churn_share:.4f}")
    if timed.exhausted:
        lines.append("warning: the distinct query stream ran out before the deadline")
        valid = False
    for error in (timed.errors + warm.errors)[:3]:
        lines.append(f"error: {error}")

    failed = timed_failed + round_failed
    correct = (failed == 0 and warm_failed == 0 and valid and labels_hold)
    if trace:
        metrics = layer_metrics(recorder, hit_ratio, overhead, mixed)
        unattributed = metrics["trace.unattributed_share"][0]
        lines.append(f"validity: trace.unattributed_share {unattributed:.4f} "
                     f"(must be < 0.10) -> "
                     + ("ok" if unattributed < 0.10 else "VIOLATED"))
        correct = correct and unattributed < 0.10
    else:
        metrics = {
            "qps": (qps, "1/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_p99_ms": (p99 * 1e3, "ms"),
            "qerror_p50": (float(np.percentile(errors, 50)), "ratio"),
            "qerror_p99": (float(np.percentile(errors, 99)), "ratio"),
            "setup_s": (statistics.median(setup_seconds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "refresh_s": (statistics.median(refresh) if refresh else 0.0, "s"),
        }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:34s} {value:14.6f} {unit}")
    if trace:
        trace_file = work.parent / f"trace-{spec.name}-{seed}.json"
        trace_file.write_text(json.dumps(recorder.summary(), indent=1))
        lines.append(f"span summary written to {trace_file.relative_to(ROOT)}")
    return {
        "lines": lines,
        "result": {"correct": bool(correct),
                   "attempted": int(timed.attempted + len(churn.rounds)),
                   "failed": int(failed),
                   "metrics": {name: {"value": float(value), "unit": unit}
                               for name, (value, unit) in metrics.items()}},
    }


def calibrate(recorder, service, queries, sources, seconds: float, w) -> float:
    """Traced-vs-untraced QPS: alternate two untraced and two traced slices."""
    rates = {False: [], True: []}
    for traced in (False, True, False, True):
        if traced:
            recorder.install()
        else:
            recorder.uninstall()
        recorder.recording = traced
        served = w.closed_loop(service, queries, sources, seconds)
        rates[traced].append(served.completed / served.seconds)
    recorder.install()
    return 1.0 - sum(rates[True]) / sum(rates[False])


def layer_metrics(recorder, hit_ratio: float, overhead: float, mixed: int) -> dict:
    r = recorder
    ms, us = 1e3, 1e6
    waits = np.frombuffer(r.queue_waits) * ms
    sizes = np.frombuffer(r.pass_sizes)
    translated = max(float(np.sum(np.frombuffer(r.translated))), 1.0)
    plan = r.last_compiled.made_plan
    flop = sum(2 * stage.in_features * stage.out_features for stage in plan.stages)
    weight_bytes = sum(stage.weight.nbytes + (0 if stage.bias is None else stage.bias.nbytes)
                       for stage in plan.stages)
    requests = max(float(np.sum(np.frombuffer(r.request_seconds))), 1e-12)

    def mean_duration(name):
        return r.total_duration(name) / max(r.calls(name), 1)

    def percentile(values, q):
        return float(np.percentile(values, q)) if values.size else 0.0

    return {
        "cache.key_us": (r.mean_self("cache.key") * us, "us"),
        "cache.get_us": (r.mean_self("cache.get") * us, "us"),
        "cache.hit_ratio": (hit_ratio, "ratio"),
        "service.self_us": (r.mean_self("service.estimate") * us, "us"),
        "service.swap_mixed_answers": (float(mixed), "count"),
        "batcher.queue_wait_ms_p50": (percentile(waits, 50), "ms"),
        "batcher.queue_wait_ms_p99": (percentile(waits, 99), "ms"),
        "batcher.batch_size_mean": (float(sizes.mean()) if sizes.size else 0.0, "count"),
        "batcher.passes": (float(sizes.size), "count"),
        "batcher.handoff_us": (float(np.mean(np.frombuffer(r.handoffs))) * us
                               if len(r.handoffs) else 0.0, "us"),
        "encoding.translate_ms_per_pass": (r.mean_self("encoding.translate") * ms, "ms"),
        "encoding.translate_ms_per_query": (
            r.total_duration("encoding.translate") * ms / translated, "ms"),
        "compiled.encode_ms": (r.mean_self("compiled.encode") * ms, "ms"),
        "compiled.mask_ms": (r.mean_self("compiled.mask") * ms, "ms"),
        "compiled.build_ms": (mean_duration("compiled.build") * ms, "ms"),
        "inference.made_ms": (r.mean_self("inference.made") * ms, "ms"),
        "inference.made_mflop_per_query": (flop / 1e6, "MFLOP"),
        "inference.weight_bytes": (float(weight_bytes), "bytes"),
        "store.append_ms": (mean_duration("store.append") * ms, "ms"),
        "store.delete_ms": (mean_duration("store.delete") * ms, "ms"),
        "store.delta_ms": (mean_duration("store.delta") * ms, "ms"),
        "executor.label_delta_ms": (mean_duration("executor.label_delta") * ms, "ms"),
        "trainer.fine_tune_s": (mean_duration("trainer.fine_tune"), "s"),
        "trainer.fine_tune_rows_per_s": (
            float(np.sum(np.frombuffer(r.fine_tune_rows)))
            / max(r.total_duration("trainer.fine_tune"), 1e-12), "rows/s"),
        "trainer.cold_train_s": (mean_duration("trainer.cold_train"), "s"),
        "registry.save_ms": (mean_duration("registry.save") * ms, "ms"),
        "registry.load_ms": (mean_duration("registry.load") * ms, "ms"),
        "trace.unattributed_share": (
            float(np.sum(np.frombuffer(r.unattributed_seconds))) / requests, "ratio"),
        "trace.overhead_share": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loaded = _load_program()
    if loaded is None:
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spans, workloads = loaded
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / f"{spec.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(spec, args.seed, args.seconds, bool(args.trace), work,
                      spans, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
