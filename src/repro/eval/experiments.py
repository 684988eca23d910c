"""Experiment drivers: one function per table / figure of the paper.

Every driver accepts size knobs (dataset scale, query counts, epochs) so the
same code can run as a quick smoke benchmark or as a full-scale
reproduction.  The defaults are laptop-friendly ("smoke" scale); the
benchmark suite under ``benchmarks/`` calls these drivers and prints the
same rows/series the paper reports.  EXPERIMENTS.md records the
paper-vs-measured comparison for each of them.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..baselines import (
    DeepDBEstimator,
    IndependenceEstimator,
    MHistEstimator,
    MSCNEstimator,
    NaruEstimator,
    SamplingEstimator,
    UAEEstimator,
)
from ..core import DuetConfig, DuetEstimator, DuetModel, DuetTrainer, MPSNConfig
from ..data import make_dataset
from ..data.table import Table
from ..workload import (
    make_inworkload,
    make_multi_predicate_workload,
    make_random_workload,
)
from .harness import EvaluationResult, evaluate_estimator, train_duet
from .reporting import cumulative_distribution, format_series, format_table

__all__ = [
    "SmokeScale",
    "figure3_loss_mapping",
    "figure4_workload_distribution",
    "figure5_lambda_study",
    "table1_mpsn_comparison",
    "figure6_scalability",
    "figure7_estimation_cost",
    "compiled_inference_cost",
    "table2_accuracy",
    "convergence_study",
    "table3_training_throughput",
    "ablation_hybrid_training",
    "ablation_expand_coefficient",
    "ablation_loss_mapping",
]


# ----------------------------------------------------------------------
# Scale presets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SmokeScale:
    """Laptop-scale experiment sizes (the defaults used by the benchmarks).

    The paper trains on the full datasets for up to hundreds of epochs on
    GPUs; these settings keep every experiment in the seconds-to-minutes
    range on a CPU while preserving the qualitative shapes.
    """

    dataset_scale: dict[str, float] = field(default_factory=lambda: {
        "dmv": 0.0008, "kddcup98": 0.02, "census": 0.04})
    kdd_columns: int = 20
    num_test_queries: int = 200
    num_train_queries: int = 400
    epochs: int = 4
    hidden_sizes: tuple[int, ...] = (64, 64)

    def dataset(self, name: str, **kwargs) -> Table:
        scale = self.dataset_scale[name]
        if name == "kddcup98":
            kwargs.setdefault("num_columns", self.kdd_columns)
        return make_dataset(name, scale=scale, **kwargs)

    def duet_config(self, **overrides) -> DuetConfig:
        defaults = dict(hidden_sizes=self.hidden_sizes, epochs=self.epochs,
                        batch_size=128, expand_coefficient=2, seed=0)
        defaults.update(overrides)
        return DuetConfig(**defaults)


# ----------------------------------------------------------------------
# Figure 3 — convergence of the raw vs log2-mapped query loss
# ----------------------------------------------------------------------

@dataclass
class LossMappingResult:
    epochs: list[int]
    data_loss: list[float]
    raw_qerror: list[float]
    mapped_query_loss: list[float]

    def render(self) -> str:
        return format_series(
            "epoch", self.epochs,
            {"L_data": self.data_loss, "raw Q-Error": self.raw_qerror,
             "log2(Q-Error+1)": self.mapped_query_loss},
            title="Figure 3: the log2 mapping brings L_query to the scale of L_data")


def figure3_loss_mapping(dataset: str = "dmv", scale: SmokeScale | None = None,
                         epochs: int | None = None) -> LossMappingResult:
    """Reproduce Figure 3: raw Q-Error vs the log2-mapped hybrid loss."""
    scale = scale or SmokeScale()
    epochs = epochs or scale.epochs
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    trained = train_duet(table, train_queries, scale.duet_config(epochs=epochs),
                         epochs=epochs)
    history = trained.history
    mapped = [float(np.log2(raw + 1.0)) for raw in history.raw_qerrors]
    return LossMappingResult(
        epochs=list(range(len(history.epochs))),
        data_loss=history.data_losses,
        raw_qerror=history.raw_qerrors,
        mapped_query_loss=mapped,
    )


# ----------------------------------------------------------------------
# Figure 4 — cardinality distribution of the test workloads
# ----------------------------------------------------------------------

@dataclass
class WorkloadDistributionResult:
    dataset: str
    rand_q_cdf: tuple[np.ndarray, np.ndarray]
    in_q_cdf: tuple[np.ndarray, np.ndarray]
    rand_q_median: float
    in_q_median: float

    def render(self) -> str:
        points = min(len(self.rand_q_cdf[0]), 11)
        indices = np.linspace(0, len(self.rand_q_cdf[0]) - 1, points).astype(int)
        return format_series(
            "quantile", [f"{self.rand_q_cdf[1][i]:.2f}" for i in indices],
            {"Rand-Q cardinality": [self.rand_q_cdf[0][i] for i in indices],
             "In-Q cardinality": [self.in_q_cdf[0][i] for i in indices]},
            title=f"Figure 4 ({self.dataset}): cardinality CDF of the test workloads")


def figure4_workload_distribution(dataset: str = "census",
                                  scale: SmokeScale | None = None
                                  ) -> WorkloadDistributionResult:
    """Reproduce Figure 4: Rand-Q and In-Q have very different distributions."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    rand_q = make_random_workload(table, num_queries=scale.num_test_queries, seed=1234)
    in_q = make_inworkload(table, num_queries=scale.num_test_queries, seed=42)
    return WorkloadDistributionResult(
        dataset=dataset,
        rand_q_cdf=cumulative_distribution(rand_q.cardinalities),
        in_q_cdf=cumulative_distribution(in_q.cardinalities),
        rand_q_median=float(np.median(rand_q.cardinalities)),
        in_q_median=float(np.median(in_q.cardinalities)),
    )


# ----------------------------------------------------------------------
# Figure 5 — hyper-parameter study on the trade-off coefficient lambda
# ----------------------------------------------------------------------

@dataclass
class LambdaStudyResult:
    lambdas: list[float]
    max_qerror: list[float]
    mean_qerror: list[float]
    best_lambda: float

    def render(self) -> str:
        return format_series(
            "lambda", self.lambdas,
            {"max Q-Error (Rand-Q)": self.max_qerror,
             "mean Q-Error (Rand-Q)": self.mean_qerror},
            title="Figure 5: trade-off coefficient study "
                  f"(best lambda = {self.best_lambda})")


def figure5_lambda_study(lambdas: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1.0),
                         dataset: str = "kddcup98",
                         scale: SmokeScale | None = None) -> LambdaStudyResult:
    """Reproduce Figure 5: accuracy as a function of the hybrid-loss weight."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    test_queries = make_random_workload(table, num_queries=scale.num_test_queries, seed=1234)
    max_errors: list[float] = []
    mean_errors: list[float] = []
    for lam in lambdas:
        trained = train_duet(table, train_queries,
                             scale.duet_config(lambda_query=lam), seed=0)
        result = evaluate_estimator(trained.estimator, test_queries, table)
        max_errors.append(result.summary.maximum)
        mean_errors.append(result.summary.mean)
    best = lambdas[int(np.argmin(max_errors))]
    return LambdaStudyResult(lambdas=list(lambdas), max_qerror=max_errors,
                             mean_qerror=mean_errors, best_lambda=float(best))


# ----------------------------------------------------------------------
# Table I — MPSN variants
# ----------------------------------------------------------------------

@dataclass
class MPSNComparisonRow:
    name: str
    max_qerror: float
    estimation_cost_ms: float
    training_cost_seconds: float
    best_epoch: int


@dataclass
class MPSNComparisonResult:
    rows: list[MPSNComparisonRow]

    def render(self) -> str:
        return format_table(
            ["name", "max Q-Error", "est cost(ms)", "train cost(s)", "best epoch"],
            [[row.name.upper(), row.max_qerror, row.estimation_cost_ms,
              row.training_cost_seconds, row.best_epoch] for row in self.rows],
            title="Table I: evaluation results for multiple-predicates support")


def table1_mpsn_comparison(kinds: tuple[str, ...] = ("mlp", "recursive", "rnn"),
                           dataset: str = "census",
                           scale: SmokeScale | None = None) -> MPSNComparisonResult:
    """Reproduce Table I: accuracy and cost of the three MPSN candidates."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    train_queries = make_multi_predicate_workload(table, num_queries=scale.num_train_queries,
                                                  seed=42)
    test_queries = make_multi_predicate_workload(table, num_queries=scale.num_test_queries,
                                                 seed=1234)
    rows: list[MPSNComparisonRow] = []
    for kind in kinds:
        config = scale.duet_config(multi_predicate=True, max_predicates_per_column=2,
                                   mpsn=MPSNConfig(kind=kind, hidden_size=32, num_layers=2))
        model = DuetModel(table, config)
        trainer = DuetTrainer(model, table, train_queries, config)
        estimator = DuetEstimator(model)

        def evaluate_max(_model, _estimator=estimator, _queries=test_queries, _table=table):
            return evaluate_estimator(_estimator, _queries, _table).summary.maximum

        started = time.perf_counter()
        history = trainer.train(evaluation_fn=evaluate_max)
        training_cost = time.perf_counter() - started
        result = evaluate_estimator(estimator, test_queries, table)
        rows.append(MPSNComparisonRow(
            name=kind,
            max_qerror=min(e for e in history.evaluations if e is not None),
            estimation_cost_ms=result.per_query_ms,
            training_cost_seconds=training_cost,
            best_epoch=history.best_epoch(),
        ))
    return MPSNComparisonResult(rows=rows)


# ----------------------------------------------------------------------
# Figure 6 — scalability with the number of predicate columns
# ----------------------------------------------------------------------

@dataclass
class ScalabilityResult:
    column_counts: list[int]
    latencies_ms: dict[str, list[float]]
    breakdowns: dict[str, list[dict[str, float]]]

    def render(self) -> str:
        return format_series("predicate columns", self.column_counts, self.latencies_ms,
                             title="Figure 6: per-query latency (ms) vs predicate columns")


def figure6_scalability(column_counts: tuple[int, ...] = (2, 5, 10, 15, 20),
                        dataset: str = "kddcup98", queries_per_point: int = 5,
                        naru_samples: int = 100,
                        scale: SmokeScale | None = None) -> ScalabilityResult:
    """Reproduce Figure 6: Duet is flat in the predicate count, Naru/UAE are linear."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    if max(column_counts) > table.num_columns:
        raise ValueError("column_counts exceed the table's column count")

    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    duet = train_duet(table, train_queries, scale.duet_config(epochs=1), epochs=1)
    naru = NaruEstimator(table, hidden_sizes=scale.hidden_sizes,
                         num_samples=naru_samples, seed=0).fit(epochs=1)
    uae = UAEEstimator(table, hidden_sizes=scale.hidden_sizes, num_samples=naru_samples,
                       num_training_samples=4, query_batch_size=4, seed=0)
    uae.fit(epochs=1, workload=train_queries.subset(range(min(50, len(train_queries)))))

    latencies: dict[str, list[float]] = {"duet": [], "naru": [], "uae": []}
    breakdowns: dict[str, list[dict[str, float]]] = {"duet": [], "naru": [], "uae": []}
    for count in column_counts:
        workload = make_random_workload(table, num_queries=queries_per_point,
                                        seed=1000 + count, max_predicates=count,
                                        label=False)
        # Force exactly `count` predicate columns per query.
        queries = [query for query in workload
                   if len(query.columns) == count] or workload.queries

        duet_breakdown = {"encoding": 0.0, "inference": 0.0}
        started = time.perf_counter()
        for query in queries:
            _, single = duet.estimator.estimate_batch_with_breakdown([query])
            duet_breakdown["encoding"] += single["encoding"]
            duet_breakdown["inference"] += single["inference"]
        latencies["duet"].append(1e3 * (time.perf_counter() - started) / len(queries))
        breakdowns["duet"].append({key: 1e3 * value / len(queries)
                                   for key, value in duet_breakdown.items()})

        for name, estimator in (("naru", naru), ("uae", uae)):
            aggregate = {"encoding": 0.0, "inference": 0.0, "sampling": 0.0}
            started = time.perf_counter()
            for query in queries:
                _, single = estimator.estimate_with_breakdown(query)
                for key in aggregate:
                    aggregate[key] += single.get(key, 0.0)
            latencies[name].append(1e3 * (time.perf_counter() - started) / len(queries))
            breakdowns[name].append({key: 1e3 * value / len(queries)
                                     for key, value in aggregate.items()})
    return ScalabilityResult(column_counts=list(column_counts), latencies_ms=latencies,
                             breakdowns=breakdowns)


# ----------------------------------------------------------------------
# Figure 7 — estimation cost of the learned estimators
# ----------------------------------------------------------------------

@dataclass
class EstimationCostResult:
    dataset: str
    per_query_ms: dict[str, float]

    def render(self) -> str:
        rows = [[name, cost] for name, cost in sorted(self.per_query_ms.items(),
                                                      key=lambda item: item[1])]
        return format_table(["estimator", "per-query ms"], rows,
                            title=f"Figure 7 ({self.dataset}): estimation cost comparison")


def figure7_estimation_cost(dataset: str = "census", scale: SmokeScale | None = None,
                            naru_samples: int = 100) -> EstimationCostResult:
    """Reproduce Figure 7: per-query estimation cost of the learned methods."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    test_queries = make_random_workload(table, num_queries=min(50, scale.num_test_queries),
                                        seed=1234)

    estimators: dict[str, object] = {}
    duet = train_duet(table, train_queries, scale.duet_config(epochs=1), epochs=1)
    estimators["duet"] = duet.estimator
    duet_d = train_duet(table, None, scale.duet_config(epochs=1, lambda_query=0.0), epochs=1)
    estimators["duet-d"] = duet_d.estimator
    estimators["naru"] = NaruEstimator(table, hidden_sizes=scale.hidden_sizes,
                                       num_samples=naru_samples, seed=0).fit(epochs=1)
    uae = UAEEstimator(table, hidden_sizes=scale.hidden_sizes, num_samples=naru_samples,
                       num_training_samples=4, query_batch_size=4, seed=0)
    uae.fit(epochs=1, workload=train_queries.subset(range(min(50, len(train_queries)))))
    estimators["uae"] = uae
    estimators["mscn"] = MSCNEstimator(table, epochs=5, seed=0).fit(train_queries)
    estimators["deepdb"] = DeepDBEstimator(table, min_instances=128)

    costs = {name: evaluate_estimator(estimator, test_queries, table).per_query_ms
             for name, estimator in estimators.items()}
    return EstimationCostResult(dataset=dataset, per_query_ms=costs)


# ----------------------------------------------------------------------
# Compiled inference — tape vs lowered-plan estimation cost (Fig. 7 style)
# ----------------------------------------------------------------------

@dataclass
class CompiledInferenceResult:
    """Tape vs compiled batch-estimation cost with the Fig.-7 phase split.

    ``paths`` maps an execution-path name (``tape``, ``compiled-float64``,
    ``compiled-float32``) to its measured ``qps``, ``per_query_ms`` and the
    encoding/inference phase split (milliseconds per micro-batch).
    """

    dataset: str
    batch_size: int
    num_queries: int
    paths: dict[str, dict[str, float]]
    max_rel_error_float64: float
    max_rel_error_float32: float

    def speedup(self, path: str = "compiled-float32") -> float:
        return self.paths[path]["qps"] / self.paths["tape"]["qps"]

    def render(self) -> str:
        rows = [[name, metrics["qps"], metrics["per_query_ms"],
                 metrics["encoding_ms"], metrics["inference_ms"],
                 metrics["qps"] / self.paths["tape"]["qps"]]
                for name, metrics in self.paths.items()]
        return format_table(
            ["path", "QPS", "per-query ms", "encoding ms/batch",
             "inference ms/batch", "speedup"],
            rows,
            title=(f"Compiled inference ({self.dataset}, micro-batch "
                   f"{self.batch_size}): tape vs lowered plans"))

    def to_metrics(self) -> dict[str, float]:
        """Flat metric dict for the benchmark snapshot harness."""
        metrics: dict[str, float] = {
            "speedup_float64": self.speedup("compiled-float64"),
            "speedup_float32": self.speedup("compiled-float32"),
            "max_rel_error_float64": self.max_rel_error_float64,
            "max_rel_error_float32": self.max_rel_error_float32,
        }
        for name, path_metrics in self.paths.items():
            key = name.replace("-", "_")
            metrics[f"{key}_qps"] = path_metrics["qps"]
            metrics[f"{key}_per_query_ms"] = path_metrics["per_query_ms"]
        return metrics


def compiled_inference_cost(dataset: str = "dmv", batch_size: int = 8,
                            num_queries: int = 1024, repeats: int = 5,
                            dataset_scale: float = 0.004,
                            config: DuetConfig | None = None,
                            ) -> CompiledInferenceResult:
    """Measure tape vs compiled batch-estimation throughput (Fig. 7 style).

    Uses the paper's DMV setup by default — the high-NDV table and the
    512-256-512-128-1024 architecture — replayed in serving-sized
    micro-batches, the shape of traffic the micro-batcher produces under
    concurrent load.  Weights are random: estimation cost does not depend
    on training, and all three paths share the exact same parameters.
    """
    from ..core.config import dmv_config
    from ..nn import PlanOptions

    config = config or dmv_config(seed=0)
    table = make_dataset(dataset, scale=dataset_scale)
    workload = make_random_workload(table, num_queries=num_queries, seed=3)
    chunks = [workload.queries[index:index + batch_size]
              for index in range(0, num_queries, batch_size)]
    model = DuetModel(table, config)
    estimator = DuetEstimator(model)
    estimator_float32 = DuetEstimator(model).compile(PlanOptions(dtype="float32"))

    def sweep(runner_estimator, compiled):
        encoding = inference = 0.0
        estimates = []
        started = time.perf_counter()
        for chunk in chunks:
            chunk_estimates, breakdown = (
                runner_estimator.estimate_batch_with_breakdown(
                    chunk, compiled=compiled))
            encoding += breakdown["encoding"]
            inference += breakdown["inference"]
            estimates.append(chunk_estimates)
        return time.perf_counter() - started, encoding, inference, estimates

    paths = [("tape", estimator, False),
             ("compiled-float64", estimator, True),
             ("compiled-float32", estimator_float32, None)]
    all_estimates: dict[str, np.ndarray] = {}
    best: dict[str, tuple] = {}
    for name, runner, compiled in paths:  # warm-up: buffers, caches, estimates
        all_estimates[name] = np.concatenate(sweep(runner, compiled)[3])
    # Pause the cyclic GC during the timed windows (the tape path builds
    # large cyclic Tensor graphs, so collection frequency — a function of
    # whatever else the process did before — would otherwise leak into the
    # comparison), and *interleave* the paths round-robin so a transient
    # host stall lands on every path rather than skewing one side; the
    # per-path minimum over rounds then discards the disturbed sweeps.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, runner, compiled in paths:
                run = sweep(runner, compiled)
                if name not in best or run[0] < best[name][0]:
                    best[name] = run[:3]
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()

    def metrics(name):
        total, encoding, inference = best[name]
        return {
            "qps": num_queries / total,
            "per_query_ms": 1e3 * total / num_queries,
            "encoding_ms": 1e3 * encoding / len(chunks),
            "inference_ms": 1e3 * inference / len(chunks),
        }

    tape_estimates = all_estimates["tape"]

    def max_rel_error(name):
        return float(np.max(np.abs(all_estimates[name] - tape_estimates)
                            / np.maximum(np.abs(tape_estimates), 1.0)))

    return CompiledInferenceResult(
        dataset=dataset, batch_size=batch_size, num_queries=num_queries,
        paths={name: metrics(name) for name, _, _ in paths},
        max_rel_error_float64=max_rel_error("compiled-float64"),
        max_rel_error_float32=max_rel_error("compiled-float32"))


# ----------------------------------------------------------------------
# Table II — accuracy of all methods
# ----------------------------------------------------------------------

@dataclass
class AccuracyTableResult:
    dataset: str
    in_workload: dict[str, EvaluationResult]
    random: dict[str, EvaluationResult]
    sizes_mb: dict[str, float]
    costs_ms: dict[str, float]

    def render(self) -> str:
        headers = ["estimator", "size(MB)", "cost(ms)",
                   "InQ mean", "InQ median", "InQ 75th", "InQ 99th", "InQ max",
                   "RandQ mean", "RandQ median", "RandQ 75th", "RandQ 99th", "RandQ max"]
        rows = []
        for name in self.in_workload:
            in_summary = self.in_workload[name].summary
            rand_summary = self.random[name].summary
            rows.append([name, self.sizes_mb[name], self.costs_ms[name]]
                        + in_summary.as_row() + rand_summary.as_row())
        return format_table(headers, rows,
                            title=f"Table II ({self.dataset}): accuracy of all methods")


_DEFAULT_TABLE2_ESTIMATORS = ("sampling", "indep", "mhist", "mscn", "deepdb",
                              "naru", "uae", "duet-d", "duet")


def table2_accuracy(dataset: str = "census",
                    estimators: tuple[str, ...] = _DEFAULT_TABLE2_ESTIMATORS,
                    scale: SmokeScale | None = None,
                    naru_samples: int = 100,
                    epochs: int | None = None) -> AccuracyTableResult:
    """Reproduce one dataset block of Table II (all estimators, both workloads)."""
    scale = scale or SmokeScale()
    epochs = epochs or scale.epochs
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    in_q = make_inworkload(table, num_queries=scale.num_test_queries, seed=42)
    rand_q = make_random_workload(table, num_queries=scale.num_test_queries, seed=1234)

    built: dict[str, object] = {}
    for name in estimators:
        if name == "sampling":
            built[name] = SamplingEstimator(table, sample_fraction=0.05, seed=0)
        elif name == "indep":
            built[name] = IndependenceEstimator(table)
        elif name == "mhist":
            built[name] = MHistEstimator(table, num_buckets=200)
        elif name == "mscn":
            built[name] = MSCNEstimator(table, epochs=max(10, epochs * 3),
                                        seed=0).fit(train_queries)
        elif name == "deepdb":
            built[name] = DeepDBEstimator(table, min_instances=128)
        elif name == "naru":
            built[name] = NaruEstimator(table, hidden_sizes=scale.hidden_sizes,
                                        num_samples=naru_samples, seed=0).fit(epochs=epochs)
        elif name == "uae":
            uae = UAEEstimator(table, hidden_sizes=scale.hidden_sizes,
                               num_samples=naru_samples, num_training_samples=4,
                               query_batch_size=4, seed=0)
            uae.fit(epochs=max(1, epochs - 1), workload=train_queries.subset(range(min(100, len(train_queries)))))
            built[name] = uae
        elif name == "duet-d":
            built[name] = train_duet(table, None,
                                     scale.duet_config(epochs=epochs, lambda_query=0.0),
                                     epochs=epochs).estimator
        elif name == "duet":
            built[name] = train_duet(table, train_queries,
                                     scale.duet_config(epochs=epochs),
                                     epochs=epochs).estimator
        else:
            raise KeyError(f"unknown estimator {name!r}")

    in_results = {name: evaluate_estimator(est, in_q, table) for name, est in built.items()}
    rand_results = {name: evaluate_estimator(est, rand_q, table) for name, est in built.items()}
    sizes = {name: est.size_bytes() / 1e6 for name, est in built.items()}
    costs = {name: rand_results[name].per_query_ms for name in built}
    return AccuracyTableResult(dataset=dataset, in_workload=in_results,
                               random=rand_results, sizes_mb=sizes, costs_ms=costs)


# ----------------------------------------------------------------------
# Figures 8 and 9 — convergence speed
# ----------------------------------------------------------------------

@dataclass
class ConvergenceResult:
    workload_kind: str
    epochs: list[int]
    max_qerror: dict[str, list[float]]

    def render(self) -> str:
        title = ("Figure 8" if self.workload_kind == "rand-q" else "Figure 9")
        return format_series("epoch", self.epochs, self.max_qerror,
                             title=f"{title}: max Q-Error convergence on {self.workload_kind}")


def convergence_study(workload_kind: str = "rand-q", dataset: str = "census",
                      epochs: int | None = None, naru_samples: int = 100,
                      scale: SmokeScale | None = None) -> ConvergenceResult:
    """Reproduce Figures 8/9: max Q-Error per epoch for Duet, DuetD, Naru, UAE."""
    if workload_kind not in ("rand-q", "in-q"):
        raise ValueError("workload_kind must be 'rand-q' or 'in-q'")
    scale = scale or SmokeScale()
    epochs = epochs or scale.epochs
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    if workload_kind == "rand-q":
        test_queries = make_random_workload(table, num_queries=scale.num_test_queries,
                                            seed=1234)
    else:
        test_queries = make_inworkload(table, num_queries=scale.num_test_queries, seed=42)

    curves: dict[str, list[float]] = {"duet": [], "duet-d": [], "naru": [], "uae": []}

    def duet_curve(training_workload, lambda_query):
        config = scale.duet_config(epochs=epochs, lambda_query=lambda_query)
        model = DuetModel(table, config)
        trainer = DuetTrainer(model, table, training_workload, config)
        estimator = DuetEstimator(model)
        values = []
        for epoch in range(epochs):
            trainer.train_epoch(epoch)
            values.append(evaluate_estimator(estimator, test_queries, table).summary.maximum)
        return values

    curves["duet"] = duet_curve(train_queries, 0.1)
    curves["duet-d"] = duet_curve(None, 0.0)

    naru = NaruEstimator(table, hidden_sizes=scale.hidden_sizes,
                         num_samples=naru_samples, seed=0)
    for _ in range(epochs):
        naru.fit_epoch()
        curves["naru"].append(evaluate_estimator(naru, test_queries, table).summary.maximum)

    uae = UAEEstimator(table, hidden_sizes=scale.hidden_sizes, num_samples=naru_samples,
                       num_training_samples=4, query_batch_size=4, seed=0)
    uae.attach_workload(train_queries.subset(range(min(100, len(train_queries)))))
    for _ in range(epochs):
        uae.fit_epoch()
        curves["uae"].append(evaluate_estimator(uae, test_queries, table).summary.maximum)

    return ConvergenceResult(workload_kind=workload_kind,
                             epochs=list(range(epochs)), max_qerror=curves)


# ----------------------------------------------------------------------
# Table III — training throughput (and memory discussion)
# ----------------------------------------------------------------------

@dataclass
class ThroughputResult:
    dataset: str
    tuples_per_second: dict[str, float]
    peak_activation_elements: dict[str, float]

    def render(self) -> str:
        rows = [[name, self.tuples_per_second[name], self.peak_activation_elements[name]]
                for name in self.tuples_per_second]
        return format_table(["estimator", "tuples/s", "peak activation elements"],
                            rows,
                            title=f"Table III ({self.dataset}): training throughput; the "
                                  "activation column is the analytical stand-in for the "
                                  "paper's GPU-memory discussion")


#: how long the BLAS thread pool runs slow after its first threaded GEMM:
#: ~1 s of 5-8 ms per small GEMM (instead of ~35 us) was measured on a
#: 2-vCPU host with OpenBLAS 0.3, in about half of the fresh processes
_BLAS_SETTLE_SECONDS = 1.5


def _warm_up(batch: Callable[[], object], settle_seconds: float = 0.0) -> None:
    """Run an untimed training batch, repeated until ``settle_seconds`` pass."""
    started = time.perf_counter()
    batch()
    while time.perf_counter() - started < settle_seconds:
        batch()


def table3_training_throughput(dataset: str = "census", scale: SmokeScale | None = None,
                               naru_samples: int = 100) -> ThroughputResult:
    """Reproduce Table III: training throughput of Naru, UAE, DuetD and Duet."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)

    throughput: dict[str, float] = {}
    activations: dict[str, float] = {}
    hidden = max(scale.hidden_sizes)
    batch_size = 256

    # Each method runs one untimed batch (forward and backward) before its
    # timed epoch, so no epoch pays its first-call work.  The first repeats
    # its batch for _BLAS_SETTLE_SECONDS: the BLAS thread pool runs every
    # threaded GEMM ~100x slower for about a second after it starts.
    naru = NaruEstimator(table, hidden_sizes=scale.hidden_sizes, batch_size=batch_size,
                         num_samples=naru_samples, seed=0)
    _warm_up(lambda: naru._data_loss(naru._codes[:batch_size]).backward(),
             settle_seconds=_BLAS_SETTLE_SECONDS)
    started = time.perf_counter()
    naru.fit_epoch()
    throughput["naru"] = table.num_rows / (time.perf_counter() - started)
    activations["naru"] = float(batch_size * hidden)

    uae = UAEEstimator(table, hidden_sizes=scale.hidden_sizes, batch_size=batch_size,
                       num_samples=naru_samples, num_training_samples=4,
                       query_batch_size=4, seed=0)
    uae.attach_workload(train_queries.subset(range(min(100, len(train_queries)))))
    _warm_up(lambda: (uae._data_loss(uae._codes[:batch_size])
                      + uae._query_loss()).backward())
    started = time.perf_counter()
    uae.fit_epoch()
    throughput["uae"] = table.num_rows / (time.perf_counter() - started)
    # UAE's query loss tracks gradients through query_batch x samples paths
    # and one forward pass per constrained column — the memory blow-up the
    # paper reports as OOM on real GPUs.  The activation figure is computed
    # with the full progressive-sampling budget (`naru_samples`, the value a
    # faithful UAE would also use during training); this run reduces the
    # training sample count to stay within CPU time, exactly the compromise
    # the paper says UAE is forced into.
    activations["uae"] = float(batch_size * hidden
                               + uae.query_batch_size * naru_samples
                               * hidden * table.num_columns)

    for name, workload, lam in (("duet-d", None, 0.0), ("duet", train_queries, 0.1)):
        config = scale.duet_config(epochs=1, lambda_query=lam, batch_size=batch_size)
        model = DuetModel(table, config)
        trainer = DuetTrainer(model, table, workload, config)
        _warm_up(lambda: trainer._step(trainer._codes[:batch_size]))
        stats = trainer.train_epoch(0)
        throughput[name] = stats.tuples_per_second
        query_term = config.query_batch_size * hidden if workload is not None else 0
        activations[name] = float(batch_size * config.expand_coefficient * hidden + query_term)

    return ThroughputResult(dataset=dataset, tuples_per_second=throughput,
                            peak_activation_elements=activations)


# ----------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ----------------------------------------------------------------------

@dataclass
class AblationResult:
    name: str
    rows: list[list]
    headers: list[str]

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.name)


def ablation_hybrid_training(dataset: str = "census",
                             scale: SmokeScale | None = None) -> AblationResult:
    """Duet vs DuetD (hybrid vs data-only) on both workloads."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    in_q = make_inworkload(table, num_queries=scale.num_test_queries, seed=42)
    rand_q = make_random_workload(table, num_queries=scale.num_test_queries, seed=1234)
    rows = []
    for name, workload, lam in (("duet-d", None, 0.0), ("duet", train_queries, 0.1)):
        trained = train_duet(table, workload, scale.duet_config(lambda_query=lam))
        in_result = evaluate_estimator(trained.estimator, in_q, table)
        rand_result = evaluate_estimator(trained.estimator, rand_q, table)
        rows.append([name, in_result.summary.mean, in_result.summary.maximum,
                     rand_result.summary.mean, rand_result.summary.maximum])
    return AblationResult(
        name=f"Ablation ({dataset}): hybrid vs data-only training",
        headers=["estimator", "InQ mean", "InQ max", "RandQ mean", "RandQ max"],
        rows=rows)


def ablation_expand_coefficient(dataset: str = "census",
                                coefficients: tuple[int, ...] = (1, 2, 4),
                                scale: SmokeScale | None = None) -> AblationResult:
    """Effect of the expand coefficient mu used by Algorithm 1."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    rand_q = make_random_workload(table, num_queries=scale.num_test_queries, seed=1234)
    rows = []
    for mu in coefficients:
        trained = train_duet(table, None, scale.duet_config(expand_coefficient=mu,
                                                            lambda_query=0.0))
        result = evaluate_estimator(trained.estimator, rand_q, table)
        rows.append([mu, result.summary.mean, result.summary.maximum,
                     trained.history.mean_throughput])
    return AblationResult(
        name=f"Ablation ({dataset}): expand coefficient mu",
        headers=["mu", "RandQ mean", "RandQ max", "tuples/s"],
        rows=rows)


def ablation_loss_mapping(dataset: str = "census",
                          scale: SmokeScale | None = None) -> AblationResult:
    """log2(QError+1) mapping vs raw Q-Error as the hybrid query loss."""
    scale = scale or SmokeScale()
    table = scale.dataset(dataset)
    train_queries = make_inworkload(table, num_queries=scale.num_train_queries, seed=42)
    rand_q = make_random_workload(table, num_queries=scale.num_test_queries, seed=1234)

    rows = []
    for label, mapped in (("log2(QError+1)", True), ("raw QError", False)):
        config = scale.duet_config()
        model = DuetModel(table, config)
        trainer = DuetTrainer(model, table, train_queries, config)
        if not mapped:
            # Swap the mapped loss for the raw Q-Error to show why the paper
            # introduces the mapping (instability / slower convergence).
            from ..nn import functional as F

            def raw_query_loss(self=trainer):
                values, ops, masks, cards = self._query_batch()
                outputs = self.model.forward(values, ops)
                selectivity = self.model.selectivity_from_outputs(outputs, masks)
                estimates = selectivity * float(self.table.num_rows)
                raw = F.qerror(estimates, cards)
                return raw.mean(), float(raw.numpy().mean())

            trainer._query_loss = raw_query_loss
            # The lowered step hard-codes the mapped loss; this variant
            # swaps a tape loss term, so it trains on the tape.
            trainer._lowered = None
        trainer.train()
        result = evaluate_estimator(DuetEstimator(model), rand_q, table)
        rows.append([label, result.summary.mean, result.summary.maximum])
    return AblationResult(
        name=f"Ablation ({dataset}): hybrid query-loss mapping",
        headers=["query loss", "RandQ mean", "RandQ max"],
        rows=rows)
