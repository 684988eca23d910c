"""Configuration of the Duet model, sampler and trainer."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DuetConfig", "MPSNConfig", "ObsConfig", "ServingConfig",
           "LifecyclePolicy", "dmv_config", "small_table_config"]

_VALID_VALUE_ENCODINGS = ("binary", "onehot", "embedding")
_VALID_MPSN_KINDS = ("mlp", "rnn", "recursive")


@dataclass(frozen=True)
class MPSNConfig:
    """Configuration of the Multiple Predicates Supporting Network (§IV-F).

    One MPSN per column embeds a variable number of predicates into the
    fixed-width input block that column owns in the MADE input.
    """

    kind: str = "mlp"
    hidden_size: int = 64
    num_layers: int = 2
    merged: bool = True  # merged block-diagonal acceleration for the MLP kind

    def __post_init__(self) -> None:
        if self.kind not in _VALID_MPSN_KINDS:
            raise ValueError(f"unknown MPSN kind {self.kind!r}; "
                             f"choose from {_VALID_MPSN_KINDS}")
        if self.hidden_size <= 0 or self.num_layers <= 0:
            raise ValueError("MPSN hidden_size and num_layers must be positive")


@dataclass(frozen=True)
class DuetConfig:
    """All knobs of Duet in one place.

    Defaults follow the paper: binary value encoding with an embedding
    fallback for very large domains, MADE hidden sizes chosen per dataset,
    expand coefficient ``mu = 4``, trade-off coefficient ``lambda = 0.1``.
    """

    # --- model architecture ------------------------------------------------
    hidden_sizes: tuple[int, ...] = (128, 128)
    residual: bool = False
    value_encoding: str = "binary"
    embedding_threshold: int = 512     # domains larger than this use an embedding
    embedding_dim: int = 16
    seed: int = 0

    # --- multiple predicates per column -------------------------------------
    multi_predicate: bool = False
    max_predicates_per_column: int = 2
    mpsn: MPSNConfig = field(default_factory=MPSNConfig)

    # --- Algorithm 1 (virtual-table sampling) -------------------------------
    expand_coefficient: int = 4        # the paper's mu
    wildcard_probability: float = 0.15  # fraction of columns left unconstrained

    # --- training ------------------------------------------------------------
    learning_rate: float = 2e-3
    batch_size: int = 256
    epochs: int = 10
    grad_clip: float = 10.0
    # hybrid loss L = L_data + lambda * log2(QError + 1)
    lambda_query: float = 0.1
    query_batch_size: int = 64
    # negative replay (delete absorption): weight of the hinge penalty that
    # pushes removed tuples' likelihood down toward (at most) uniform during
    # incremental fine-tuning; 0 disables negative replay entirely
    negative_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.value_encoding not in _VALID_VALUE_ENCODINGS:
            raise ValueError(f"unknown value encoding {self.value_encoding!r}; "
                             f"choose from {_VALID_VALUE_ENCODINGS}")
        if self.expand_coefficient < 1:
            raise ValueError("expand_coefficient (mu) must be >= 1")
        if not 0.0 <= self.wildcard_probability < 1.0:
            raise ValueError("wildcard_probability must be in [0, 1)")
        if self.lambda_query < 0:
            raise ValueError("lambda_query must be non-negative")
        if self.negative_weight < 0:
            raise ValueError("negative_weight must be non-negative")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of the observability layer (:mod:`repro.obs`).

    Attributes
    ----------
    trace_sample_rate:
        Probability that one ``estimate()`` call records a span tree.
        ``0.0`` (the default) keeps the untraced hot path allocation-free —
        a single float compare per request; ``1.0`` traces everything.
    trace_keep_slowest:
        How many finished traces the tracer retains, slowest first, for
        ``service.tracer.slowest()``.
    profile_plan_stages:
        When true, the compiled :class:`~repro.nn.ForwardPlan` accumulates
        per-stage wall time and invocation counts (and the compiled model
        times its encode/forward/mask phases), so plan time can be
        attributed to individual gather/matmul/mask stages.  Off by
        default: the profiled ``run()`` loop reads the clock twice per
        stage.
    export_interval_seconds:
        Cadence of the :class:`~repro.obs.MetricsExporter` snapshot-to-file
        loop when a soak run wires one up.
    """

    trace_sample_rate: float = 0.0
    trace_keep_slowest: int = 32
    profile_plan_stages: bool = False
    export_interval_seconds: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.trace_keep_slowest <= 0:
            raise ValueError("trace_keep_slowest must be positive")
        if self.export_interval_seconds <= 0:
            raise ValueError("export_interval_seconds must be positive")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the online estimation service (:mod:`repro.serving`).

    Attributes
    ----------
    micro_batching:
        When true (the default), concurrent ``estimate()`` calls are
        coalesced by a :class:`~repro.serving.MicroBatcher` into single
        vectorised passes of the serving plan.  When false the service runs
        one forward pass per request — the naive mode the throughput
        benchmark compares against.
    max_batch_size:
        Upper bound on how many queued requests one forward pass may serve.
        Larger batches amortise the per-pass overhead but increase the
        latency of the first request in the batch.
    max_wait_ms:
        How long (milliseconds) the batcher waits for more requests after
        the first one arrives before closing the batch.  ``0`` degenerates
        to "drain whatever is already queued"; a couple of milliseconds is
        enough for batches to form under concurrent load while keeping the
        idle-service latency near the raw forward-pass cost.
    cache_capacity:
        Number of entries of the estimate LRU cache.  Keys are canonical
        (predicate-order and operator-alias insensitive), so permuted
        repeats of a query hit the cache and skip the model entirely.
        ``0`` disables caching.
    latency_window:
        Number of most-recent request latencies retained for the p50/p90/p99
        statistics; older samples are discarded so a long-running service
        reports a moving window rather than its full history.
    inference_dtype:
        Arithmetic precision of the serving plan — the service always runs
        every forward pass through a grad-free
        :class:`~repro.core.CompiledDuetModel` (masks folded, fused masked
        selectivity, buffers reused across micro-batches), leaving the
        estimator's own tape path untouched as the equivalence oracle.
        ``"float64"`` matches the tape path to ~1e-15 relative; ``"float32"``
        halves the memory traffic and agrees to ~1e-5 relative — far below
        the model's own estimation error.  ``None`` (the default) defers to
        the estimator's own compile options — e.g. the dtype persisted in
        the model registry — falling back to ``"float64"`` when the
        estimator carries none.
    refresh_epochs:
        Fine-tuning epochs one ``EstimationService.refresh()`` runs over the
        appended rows (plus replay) before hot-swapping the model.
    replay_fraction:
        Old-row replay size of a refresh, as a fraction of the appended
        rows — the anti-forgetting knob of incremental fine-tuning.
    obs:
        Observability knobs (:class:`ObsConfig`): trace sampling, plan
        profiling, exporter cadence.  Defaults keep every hook off, so a
        plain service pays only the registry counter increments.
    """

    micro_batching: bool = True
    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    cache_capacity: int = 8192
    latency_window: int = 65536
    inference_dtype: str | None = None
    refresh_epochs: int = 1
    replay_fraction: float = 0.25
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.latency_window <= 0:
            raise ValueError("latency_window must be positive")
        if self.inference_dtype not in (None, "float32", "float64"):
            raise ValueError("inference_dtype must be 'float32', 'float64', "
                             "or None (defer to the estimator's options)")
        if self.refresh_epochs <= 0:
            raise ValueError("refresh_epochs must be positive")
        if self.replay_fraction < 0:
            raise ValueError("replay_fraction must be non-negative")


@dataclass(frozen=True)
class LifecyclePolicy:
    """Knobs of the autonomous lifecycle controller (:mod:`repro.lifecycle`).

    The controller watches one :class:`~repro.serving.EstimationService` and
    decides when the served model should absorb appended data.  Three
    independent triggers feed the decision (any one of them fires it):

    * ``max_stale_rows`` — absolute number of rows appended since the served
      model's ``data_version``;
    * ``max_stale_fraction`` — the same staleness relative to the rows the
      model was trained on (catches slow drip on small tables and sudden
      bulk loads on large ones with one knob);
    * ``qerror_median_threshold`` / ``qerror_drift_factor`` — *observed*
      accuracy decay on a sliding-window probe set of recently served
      queries, relabeled incrementally against the live store.  The absolute
      threshold fires when the probe median Q-Error exceeds it; the drift
      factor fires when the median exceeds ``factor`` times the baseline
      recorded right after the last (re)train.  ``None`` disables either.

    Attributes
    ----------
    poll_interval_seconds:
        How often the scheduler's daemon loop re-evaluates the policy.
    max_stale_rows / max_stale_fraction:
        Staleness triggers described above.  ``None`` disables either.
    probe_window:
        Sliding-window capacity of the drift probe set (served queries are
        sampled into it at ``probe_sample_rate``).
    probe_sample_rate:
        Probability that one served query is recorded into the probe window.
    min_probe_queries:
        Q-Error triggers stay silent until the window holds at least this
        many queries (tiny probe sets make noisy medians).
    qerror_median_threshold / qerror_drift_factor:
        Accuracy triggers described above.
    debounce_polls:
        Consecutive positive evaluations required before a refresh is
        actually launched — absorbs append bursts so the controller tunes
        once at the end instead of per batch.
    cooldown_seconds:
        Minimum wall-clock gap between two controller-initiated tunes.
    refresh_epochs:
        Fine-tuning epochs per automatic refresh (``None`` defers to
        :attr:`ServingConfig.refresh_epochs`).
    cold_train_on_growth:
        When a refresh fails with a domain-growth error, escalate to a
        background cold train + swap instead of surfacing the error.
    cold_train_epochs:
        Training epochs of an escalated cold train.
    tune_slice_batches / tune_yield_seconds:
        Backpressure: the tuning loop sleeps ``tune_yield_seconds`` after
        every ``tune_slice_batches`` optimiser steps, bounding how long
        fine-tuning can hold the interpreter away from serving threads.
        ``0`` disables the yield.
    keep_model_versions:
        Registry retention: prune a dataset's versions down to this many
        after each successful tune (the served version is never pruned).
        ``None`` keeps everything.
    compact_tombstone_fraction:
        Compaction trigger: when the store's dead-row fraction
        (:attr:`~repro.data.ColumnStore.tombstone_fraction`) reaches this
        threshold, the scheduler rewrites the chunks to drop tombstoned rows
        and escalates to a background cold train on the compacted snapshot
        (deltas cannot span a compaction, and a clean retrain also erases
        the approximation error negative-replay fine-tuning accumulates
        under heavy deletes).  ``None`` disables automatic compaction.
    canary_margin:
        Canary gate for every controller-initiated swap: a fine-tuned or
        cold-trained candidate is shadow-evaluated on the drift monitor's
        probe set and rejected (the incumbent keeps serving) when its probe
        median Q-Error exceeds ``canary_margin`` times the incumbent's.
        ``1.0`` demands the candidate be no worse; the default ``1.1``
        tolerates 10% regression (probe medians are noisy).  ``None``
        disables gating — every candidate swaps unevaluated, the
        pre-canary behaviour.
    failure_backoff_seconds / failure_backoff_max_seconds:
        Exponential backoff after a *failed* tune (refresh, cold train, or
        compaction): the tune path is parked for
        ``failure_backoff_seconds * 2**(consecutive_failures - 1)`` capped
        at ``failure_backoff_max_seconds``.  Kept separate from
        ``cooldown_seconds``, which only measures the gap since the last
        *successful* tune — a persistently failing tune and a healthy one
        must not share one knob.  ``0`` retries on the next poll.
    breaker_failure_threshold / breaker_cooldown_seconds:
        Circuit breaker over the tune path: after ``breaker_failure_threshold``
        consecutive tune failures the breaker opens and every tune/compaction
        opportunity is skipped (serving is untouched) until
        ``breaker_cooldown_seconds`` have passed; the breaker then half-opens
        and admits one trial tune — success closes it, failure re-opens it
        for another cooldown.  ``None`` disables the breaker (backoff alone
        still applies).
    """

    poll_interval_seconds: float = 1.0
    max_stale_rows: int | None = 10_000
    max_stale_fraction: float | None = 0.10
    probe_window: int = 256
    probe_sample_rate: float = 0.1
    min_probe_queries: int = 16
    qerror_median_threshold: float | None = None
    qerror_drift_factor: float | None = 2.0
    debounce_polls: int = 2
    cooldown_seconds: float = 30.0
    refresh_epochs: int | None = None
    cold_train_on_growth: bool = True
    cold_train_epochs: int = 4
    tune_slice_batches: int = 8
    tune_yield_seconds: float = 0.002
    keep_model_versions: int | None = 3
    compact_tombstone_fraction: float | None = 0.30
    canary_margin: float | None = 1.1
    failure_backoff_seconds: float = 2.0
    failure_backoff_max_seconds: float = 60.0
    breaker_failure_threshold: int | None = 5
    breaker_cooldown_seconds: float = 120.0

    def __post_init__(self) -> None:
        if self.poll_interval_seconds <= 0:
            raise ValueError("poll_interval_seconds must be positive")
        if self.max_stale_rows is not None and self.max_stale_rows <= 0:
            raise ValueError("max_stale_rows must be positive (or None)")
        if self.max_stale_fraction is not None and self.max_stale_fraction <= 0:
            raise ValueError("max_stale_fraction must be positive (or None)")
        if self.probe_window <= 0:
            raise ValueError("probe_window must be positive")
        if not 0.0 <= self.probe_sample_rate <= 1.0:
            raise ValueError("probe_sample_rate must be in [0, 1]")
        if self.min_probe_queries <= 0:
            raise ValueError("min_probe_queries must be positive")
        if (self.qerror_median_threshold is not None
                and self.qerror_median_threshold < 1.0):
            raise ValueError("qerror_median_threshold is a Q-Error, so >= 1")
        if self.qerror_drift_factor is not None and self.qerror_drift_factor <= 1.0:
            raise ValueError("qerror_drift_factor must exceed 1 (or be None)")
        if self.debounce_polls <= 0:
            raise ValueError("debounce_polls must be positive")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        if self.refresh_epochs is not None and self.refresh_epochs <= 0:
            raise ValueError("refresh_epochs must be positive (or None)")
        if self.cold_train_epochs <= 0:
            raise ValueError("cold_train_epochs must be positive")
        if self.tune_slice_batches <= 0:
            raise ValueError("tune_slice_batches must be positive")
        if self.tune_yield_seconds < 0:
            raise ValueError("tune_yield_seconds must be non-negative")
        if self.keep_model_versions is not None and self.keep_model_versions < 1:
            raise ValueError("keep_model_versions must be >= 1 (or None)")
        if (self.compact_tombstone_fraction is not None
                and not 0.0 < self.compact_tombstone_fraction <= 1.0):
            raise ValueError(
                "compact_tombstone_fraction must be in (0, 1] (or None)")
        if self.canary_margin is not None and self.canary_margin <= 0:
            raise ValueError("canary_margin must be positive (or None)")
        if self.failure_backoff_seconds < 0:
            raise ValueError("failure_backoff_seconds must be non-negative")
        if self.failure_backoff_max_seconds < self.failure_backoff_seconds:
            raise ValueError("failure_backoff_max_seconds must be >= "
                             "failure_backoff_seconds")
        if (self.breaker_failure_threshold is not None
                and self.breaker_failure_threshold < 1):
            raise ValueError("breaker_failure_threshold must be >= 1 (or None)")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be non-negative")


def dmv_config(**overrides) -> DuetConfig:
    """The paper's DMV architecture: MADE with 512-256-512-128-1024 hidden units."""
    defaults = dict(hidden_sizes=(512, 256, 512, 128, 1024), residual=False)
    defaults.update(overrides)
    return DuetConfig(**defaults)


def small_table_config(**overrides) -> DuetConfig:
    """The paper's Kddcup98 / Census architecture: 2-layer ResMADE, 128 units."""
    defaults = dict(hidden_sizes=(128, 128), residual=True)
    defaults.update(overrides)
    return DuetConfig(**defaults)
