"""The benchmark's workloads: set-up, closed-loop load, churn rounds, checks.

Every workload serves a Duet model through the shipped ``ServingConfig()``
defaults, started the way an operator would start it: build the table, cold
train, ``ModelRegistry.save``, ``EstimationService.from_registry`` (load +
compile + service start) with the live ``ColumnStore`` attached, warm up.
Workloads differ only in their inputs, table, model and client count.

Load is closed-loop: each client thread sends its next ``estimate()`` only
after the previous one returned, modelling query-optimizer planner threads
that wait for a cardinality before asking the next one.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable

import numpy as np

from repro.core import DuetModel, DuetTrainer, QueryCodec
from repro.core import dmv_config, small_table_config
from repro.data import ColumnStore, make_census, make_dmv
from repro.nn import PlanOptions
from repro.serving import EstimationService, ModelRegistry, QueryKeyEncoder
from repro.workload import (WorkloadConfig, WorkloadGenerator, true_cardinalities,
                            true_cardinalities_delta)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: distinct requests sent through ``estimate()`` in each warm-up
WARMUP_REQUESTS = 256
#: warm-up and timed served estimates re-answered by the tape oracle
ORACLE_WARMUP_SAMPLE = 64
ORACLE_TIMED_SAMPLE = 256
#: documented float32 bound of the compiled plan against the tape path
ORACLE_RTOL = 1e-5
#: equal slices of the timed phase; QPS and the p50 and p99 latencies are
#: the medians over them, so a burst of host CPU contention inside one or
#: two slices moves none of them (on a shared 2-vCPU host such a burst
#: tripled a whole-phase p99).  Each slice of a 25 s phase keeps more than
#: ten samples beyond its p99.
WINDOWS = 5
#: the fixed labelled set: served after the timed phase for Q-Error, its
#: labels rolled forward by the churn rounds; the same on every seed
ACCURACY_QUERIES = 2000
ACCURACY_SEED = 0
#: the shape of one churn round, as the census-churn workload defines it:
#: append 5% resampled live rows, tombstone 2% of the rows, refresh
APPEND_FRACTION = 0.05
DELETE_FRACTION = 0.02


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    make_table: Callable
    model_config: Callable
    #: rows of the bounded cold train in set-up (one epoch over them)
    cold_train_rows: int
    clients: int
    #: churn rounds run beside the readers (True) or after the timed phase,
    #: where they only measure ``refresh_s``
    churn_under_load: bool
    #: census: enough rounds to keep a refresh running through nearly all of
    #: a 25 s phase, so the reader's p99 sits inside the contended latencies
    #: instead of on the edge between refreshing and idle time; DMV: a round
    #: of this shape fine-tunes the large MADE for ~6 s, so 3 bound the run
    rounds: int


#: why each workload exists is recorded beside its name in BENCHMARK.json
WORKLOADS = {spec.name: spec for spec in (
    WorkloadSpec(
        name="dmv-unique-c2",
        make_table=lambda: make_dmv(scale=0.0008), model_config=dmv_config,
        cold_train_rows=512, clients=2, churn_under_load=False, rounds=3),
    WorkloadSpec(
        name="census-churn-c1",
        make_table=lambda: make_census(scale=0.5), model_config=small_table_config,
        cold_train_rows=4096, clients=1, churn_under_load=True, rounds=15),
)}


# ----------------------------------------------------------------------
# Inputs (all drawn from the seed)
# ----------------------------------------------------------------------

class DistinctQueries:
    """A growing Rand-Q stream whose queries are distinct by cache key.

    Distinctness uses the serving layer's own canonical
    ``QueryKeyEncoder.key``, so no two requests can share a cache entry.
    Extending the stream only appends: the prefix is fixed by the seed.
    """

    def __init__(self, table, seed: int) -> None:
        self._generator = WorkloadGenerator(table, WorkloadConfig(seed=seed))
        self._keys = QueryKeyEncoder(table)
        self._seen: set = set()
        self.queries: list = []

    def extend_to(self, count: int) -> None:
        while len(self.queries) < count:
            query = self._generator.generate_query()
            key = self._keys.key(query)
            if key not in self._seen:
                self._seen.add(key)
                self.queries.append(query)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class Deployment:
    spec: WorkloadSpec
    store: ColumnStore
    registry: ModelRegistry
    service: EstimationService
    base: object
    #: (query index, served estimate) pairs of the warm-up
    warmup: "Served"

    @property
    def dataset(self) -> str:
        return self.service.dataset


def set_up(spec: WorkloadSpec, root: Path, warm_up, measure) -> Deployment:
    """Build, cold train, save, load + compile, start, warm up.

    ``measure(name, fn)`` runs ``fn`` as a named span (a no-op wrapper when
    the run is untraced).  The cold train is one epoch over a fixed
    ``cold_train_rows`` sample, which bounds set-up time for every run.
    """
    store = ColumnStore.from_table(spec.make_table())
    base = store.snapshot()
    model = DuetModel(base, spec.model_config())
    rows = np.sort(np.random.default_rng(0).choice(
        base.num_rows, size=spec.cold_train_rows, replace=False))
    measure("trainer.cold_train",
            lambda: DuetTrainer(model, base, train_rows=rows).train(epochs=1))
    registry = ModelRegistry(root)
    registry.save(model, base.name, compile_options=PlanOptions())
    service = EstimationService.from_registry(registry, base.name, store=store)
    try:
        served = warm_up(service)
    except BaseException:
        service.close()
        raise
    return Deployment(spec, store, registry, service, base, served)


# ----------------------------------------------------------------------
# Closed-loop load
# ----------------------------------------------------------------------

@dataclass
class Served:
    """What the clients of one phase sent and got back."""

    index: list = field(default_factory=list)
    estimate: list = field(default_factory=list)
    started: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    seconds: float = 0.0
    #: ``perf_counter()`` when the clients were released
    began: float = 0.0
    exhausted: bool = False

    def extend(self, other: "Served") -> None:
        for name in ("index", "estimate", "started", "latency", "errors"):
            getattr(self, name).extend(getattr(other, name))

    @property
    def completed(self) -> int:
        return len(self.latency)

    @property
    def attempted(self) -> int:
        return len(self.latency) + len(self.errors)


def closed_loop(service, queries, sources, seconds: float | None,
                beside: Callable[[], None] | None = None) -> Served:
    """Run one client thread per entry of ``sources`` until the deadline.

    A source is a callable returning the next query index or ``None`` when
    the inputs are exhausted.  ``seconds=None`` runs until every source is
    exhausted (the warm-up).  ``beside`` runs on one more thread started
    with the clients (the churn writer) and is joined with them.
    """
    parts = [Served() for _ in sources]
    barrier = threading.Barrier(len(sources) + 1 + (beside is not None))
    clock = {}

    def client(source, out: Served) -> None:
        estimate = service.estimate
        barrier.wait()
        deadline = clock["deadline"]
        now = perf_counter()
        while now < deadline:
            index = source()
            if index is None:
                out.exhausted = True
                break
            query = queries[index]
            started = perf_counter()
            try:
                value = estimate(query)
            except Exception as error:  # noqa: BLE001 — counted as failed
                out.errors.append(f"{type(error).__name__}: {error}")
                now = perf_counter()
                continue
            now = perf_counter()
            out.index.append(index)
            out.estimate.append(value)
            out.started.append(started)
            out.latency.append(now - started)
        out.seconds = now

    threads = [threading.Thread(target=client, args=(source, part), daemon=True)
               for source, part in zip(sources, parts)]
    if beside is not None:
        def writer() -> None:
            barrier.wait()
            beside()

        threads.append(threading.Thread(target=writer, daemon=True))
    for thread in threads:
        thread.start()
    started = perf_counter()
    clock["deadline"] = float("inf") if seconds is None else started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    merged = Served()
    for part in parts:
        merged.extend(part)
    merged.began = started
    merged.seconds = max(max(part.seconds for part in parts) - started, 1e-9)
    merged.exhausted = any(part.exhausted for part in parts)
    return merged


def shared_counter(start: int, stop: int):
    """A thread-safe source handing out ``start, start+1, ... < stop``."""
    counter = itertools.count(start)

    def source():
        index = next(counter)  # itertools.count is atomic under the GIL
        return index if index < stop else None

    return source


# ----------------------------------------------------------------------
# Churn rounds
# ----------------------------------------------------------------------

@dataclass
class Round:
    mutated: float
    refreshed: float
    version_after: str | None
    error: str | None = None

    @property
    def refresh_seconds(self) -> float:
        return self.refreshed - self.mutated


class Churn:
    """Append resampled rows, tombstone rows, refresh, roll labels forward.

    Appended rows are resampled from the live rows, so no column domain
    grows and ``refresh()`` must never raise ``DomainGrowthError``.  Each
    round keeps the store's delta since the previous one; :meth:`label`
    rolls the probe labels forward through them with
    ``true_cardinalities_delta``, in round order.  Labeling is the
    benchmark's own ground truth, not serving work, so it runs after the
    timed phase: beside the reader it held the interpreter lock long enough
    to add 30-45 ms stalls to reader requests.
    """

    def __init__(self, deployment: Deployment, probe: list, seed: int,
                 measure) -> None:
        self.deployment = deployment
        self.probe = probe
        self.labels = true_cardinalities(deployment.base, probe)
        self.rounds: list[Round] = []
        self.max_rows = deployment.base.num_rows
        self._deltas: list = []
        self._version = deployment.base.data_version
        self._rng = np.random.default_rng([seed, 2])
        self._measure = measure

    def run_round(self) -> Round:
        store = self.deployment.store
        service = self.deployment.service
        live = store.snapshot()
        picked = self._rng.choice(live.num_rows,
                                  size=int(live.num_rows * APPEND_FRACTION))
        store.append({column.name: column.distinct_values[column.codes[picked]]
                      for column in live.columns})
        self.max_rows = max(self.max_rows, store.num_rows)
        store.delete(self._rng.choice(
            store.num_rows, size=int(store.num_rows * DELETE_FRACTION),
            replace=False))
        mutated = perf_counter()
        error = None
        try:
            if service.refresh() is None:
                error = "refresh() registered no new version"
        except Exception as failure:  # noqa: BLE001 — a failed round, reported
            error = f"{type(failure).__name__}: {failure}"
        done = Round(mutated, perf_counter(), service.model_version, error)
        delta = store.delta(self._version)
        self._deltas.append(delta)
        self._version = delta.new_version
        self.rounds.append(done)
        return done

    def run_paced(self, seconds: float) -> None:
        """The spec's rounds started on a fixed cadence over ``seconds``.

        A round that overruns its slot starts the next one at once, so the
        writer always does the same work.
        """
        rounds = self.deployment.spec.rounds
        period = seconds / rounds
        started = perf_counter()
        for index in range(rounds):
            sleep(max(0.0, started + index * period - perf_counter()))
            self.run_round()

    def label(self) -> None:
        """Roll the probe labels forward through the rounds' deltas."""
        for delta in self._deltas:
            self.labels = self._measure(
                "executor.label_delta",
                lambda: true_cardinalities_delta(delta, self.probe, self.labels))
        self._deltas.clear()

    def labels_hold(self) -> bool:
        """Rolled-forward labels equal a full rescan of the live rows."""
        final = self.deployment.store.snapshot()
        return bool(np.array_equal(self.labels,
                                   true_cardinalities(final, self.probe)))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def versions_serving(rounds: list[Round], initial: str, started: float,
                     ended: float) -> set[str]:
    """Model versions that may have answered a request in ``[started, ended]``.

    A version may serve from the start of the refresh that built it to the
    end of the refresh that replaced it.
    """
    candidates = set()
    live_from = float("-inf")
    current = initial
    for done in rounds:
        if done.version_after is None or done.version_after == current:
            continue
        if live_from <= ended and started <= done.refreshed:
            candidates.add(current)
        live_from = done.mutated
        current = done.version_after
    if live_from <= ended:
        candidates.add(current)
    return candidates


def oracle_check(registry: ModelRegistry, dataset: str, queries: list,
                 served: list, candidates: list[set[str]]) -> tuple[int, int]:
    """Check served estimates against the tape oracle; ``(failed, mixed)``.

    The oracle is ``DuetEstimator.estimate_batch_with_breakdown(...,
    compiled=False)`` on each candidate version reloaded from the registry.
    An estimate passes when it is within ``ORACLE_RTOL`` of a candidate's.

    ``mixed`` counts the estimates that no single candidate explains but
    one candidate's selectivity scaled by another's row count does: torn
    reads inside ``refresh()``'s hot-swap, which points the estimator at
    the new table before the new plan replaces the old one.  They are a
    known defect of the swap, so they are reported on their own (the
    ``service.swap_mixed_answers`` metric) rather than failing every run.
    """
    served = np.asarray(served, dtype=np.float64)
    selectivity, rows = {}, {}
    for version in sorted(set().union(*candidates)) if candidates else []:
        estimator = registry.load_estimator(dataset, version)
        estimates, _ = estimator.estimate_batch_with_breakdown(queries, compiled=False)
        rows[version] = estimator.table.num_rows
        selectivity[version] = estimates / rows[version]

    def matches(model: str, scale: str) -> np.ndarray:
        expected = selectivity[model] * rows[scale]
        return np.abs(served - expected) <= ORACLE_RTOL * np.abs(expected) + 1e-12

    exact = np.zeros(len(queries), dtype=bool)
    scaled = np.zeros(len(queries), dtype=bool)
    for model in selectivity:
        for scale in selectivity:
            members = np.array([model in c and scale in c for c in candidates])
            hit = members & matches(model, scale)
            if model == scale:
                exact |= hit
            else:
                scaled |= hit
    return int((~(exact | scaled)).sum()), int((scaled & ~exact).sum())


def windowed(served: Served, seconds: float) -> tuple[float, float, float, int]:
    """``(qps, p50 s, p99 s, fewest samples in a slice)``: medians over
    ``WINDOWS`` slices of the phase."""
    width = seconds / WINDOWS
    slot = np.minimum(((np.asarray(served.started) - served.began) // width)
                      .astype(np.int64), WINDOWS - 1)
    latency = np.asarray(served.latency)
    counts = np.bincount(slot, minlength=WINDOWS)
    slices = [latency[slot == k] for k in range(WINDOWS) if counts[k]]
    return (float(np.median(counts) / width),
            float(np.median([np.percentile(part, 50) for part in slices])),
            float(np.median([np.percentile(part, 99) for part in slices])),
            int(counts.min()))


def out_of_range(estimates, upper: float) -> int:
    values = np.asarray(estimates, dtype=np.float64)
    return int((~((values >= 0.0) & (values <= upper))).sum())


def sample_positions(count: int, size: int) -> np.ndarray:
    """Evenly spread positions of a fixed-size sample."""
    if count <= size:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, size).astype(np.int64))


class MissCounter:
    """Counts queries reaching ``QueryCodec.translate_batch`` (cache misses).

    One counter increment per forward pass, the only instrumentation of an
    untraced run; it lets the workload checks measure the hit ratio without
    reading the service's own statistics.
    """

    def __init__(self) -> None:
        self.count = 0
        self._original = None

    def install(self) -> None:
        original = QueryCodec.translate_batch
        counter = self

        def translate_batch(codec, queries, *args, **kwargs):
            counter.count += len(queries)  # runs on the one batcher thread
            return original(codec, queries, *args, **kwargs)

        self._original = original
        QueryCodec.translate_batch = translate_batch

    def uninstall(self) -> None:
        if self._original is not None:
            QueryCodec.translate_batch = self._original
            self._original = None
