"""Characterization of the refresh scheduler's observable behaviour.

Each scenario drives a :class:`RefreshScheduler` through the public surface
only (``poll_once``, ``quiesce``, the store, and seams the trainer and the
canary go through) and pins the exact sequence of ``(kind, detail)`` pairs
the scheduler records in its :class:`EventLog`, where ``detail`` is the
event's ``action``, ``status``, ``state`` or ``stage`` (the first present).
The scenarios mirror the scheduler tests of
``tests/test_lifecycle_controller.py`` and ``tests/test_lifecycle_faults.py``
— including the deterministic chaos run, the accuracy-trigger no-op, the
cooldown, growth escalation, compaction escalation and the canary-rejected
cold train — so an internal rewrite of the tune path can be checked against
the sequences it must keep.  Nothing here reads scheduler internals.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.core import (
    DuetConfig,
    DuetModel,
    DuetTrainer,
    LifecyclePolicy,
    ServingConfig,
)
from repro.data import ColumnStore, Table
from repro.lifecycle import (
    DriftMonitor,
    FaultInjector,
    FaultSpec,
    RefreshScheduler,
)
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload

CONFIG = DuetConfig(hidden_sizes=(16, 16), epochs=1, batch_size=128,
                    expand_coefficient=1, lambda_query=0.0, seed=0)

#: no debounce, no cooldown, no backoff, no breaker: every poll may act
EAGER = LifecyclePolicy(poll_interval_seconds=0.02, max_stale_rows=50,
                        max_stale_fraction=0.1, probe_sample_rate=1.0,
                        min_probe_queries=5, debounce_polls=1,
                        cooldown_seconds=0.0, refresh_epochs=1,
                        cold_train_epochs=1, keep_model_versions=2,
                        tune_yield_seconds=0.0,
                        failure_backoff_seconds=0.0,
                        breaker_failure_threshold=None)

HOLD = ("decision", "hold")
TUNE = ("decision", "tune")
REFRESH = ("refresh", None)
RETENTION = ("retention", None)
#: a fine-tune that passes the canary (an empty probe window abstains) and
#: swaps in, followed by its retention sweep
SWAP = [TUNE, ("canary_pass", "refresh"), REFRESH, RETENTION]


@pytest.fixture()
def store() -> ColumnStore:
    rng = np.random.default_rng(0)
    table = Table.from_dict("lifecycle", {
        "age": rng.integers(18, 60, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })
    return ColumnStore.from_table(table)


@pytest.fixture()
def service(store, tmp_path):
    base = store.snapshot()
    model = DuetModel(base, CONFIG)
    DuetTrainer(model, base, config=CONFIG).train(1)
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="lifecycle")
    with EstimationService.from_registry(
            registry, "lifecycle", store=store,
            config=ServingConfig(max_wait_ms=0.2)) as service:
        yield service


def _scheduler(service, seeded: bool = False, **overrides) -> RefreshScheduler:
    policy = dataclasses.replace(EAGER, **overrides)
    monitor = DriftMonitor(service, policy)
    if seeded:
        monitor.seed_probes(make_random_workload(
            service.store.snapshot(), num_queries=20, seed=17,
            label=False).queries)
    return RefreshScheduler(service, policy, monitor=monitor)


def _signature(scheduler: RefreshScheduler) -> list[tuple]:
    """The log as ``(kind, detail)`` pairs, background verdicts settled.

    A cold train's canary verdict is recorded on the training thread, so it
    can land before or after the poll thread's ``started`` record; it is
    moved to just before the cold train's terminal record to compare the
    logical order.
    """
    sequence, verdicts = [], []
    for event in scheduler.events.events():
        details = event.details
        detail = next((details[key] for key in ("action", "status", "state",
                                                "stage") if key in details),
                      None)
        if event.kind.startswith("canary_") and detail == "cold_train":
            verdicts.append((event.kind, detail))
            continue
        if (event.kind, detail) in (("cold_train", "swapped"),
                                    ("cold_train", "rejected"),
                                    ("error", "cold_train")):
            sequence.extend(verdicts)
            verdicts.clear()
        sequence.append((event.kind, detail))
    return sequence + verdicts


def _append_in_domain(store: ColumnStore, count: int, seed: int):
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    return store.append({
        name: snapshot.column(name).distinct_values[
            rng.integers(0, snapshot.column(name).num_distinct, size=count)]
        for name in snapshot.column_names
    })


def _append_growing(store: ColumnStore, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return store.append({
        "age": rng.integers(200, 260, size=count),
        "city": rng.choice(["zrh", "vie"], size=count),
        "score": rng.integers(50, 60, size=count),
    })


def _raiser(message):
    def fail(*args, **kwargs):
        raise RuntimeError(message)
    return fail


def test_refresh_then_hold(service, store):
    scheduler = _scheduler(service)
    scheduler.poll_once()
    _append_in_domain(store, 120, seed=7)
    scheduler.poll_once()
    scheduler.poll_once()
    assert _signature(scheduler) == [HOLD, *SWAP, HOLD]


def test_debounce_streaks(service, store):
    scheduler = _scheduler(service, debounce_polls=2)
    _append_in_domain(store, 120, seed=7)
    scheduler.poll_once()
    scheduler.poll_once()
    _append_in_domain(store, 120, seed=8)
    scheduler.poll_once()
    service.refresh()  # absorbed out of band
    scheduler.poll_once()
    assert _signature(scheduler) == [
        ("decision", "debounce"), *SWAP, ("decision", "debounce"), HOLD]


def test_cooldown_spaces_successful_tunes(service, store):
    scheduler = _scheduler(service, cooldown_seconds=1.0)
    _append_in_domain(store, 120, seed=7)
    scheduler.poll_once()
    _append_in_domain(store, 120, seed=8)
    scheduler.poll_once()
    time.sleep(1.05)
    scheduler.poll_once()
    assert _signature(scheduler) == [*SWAP, ("decision", "cooldown"), *SWAP]


def test_accuracy_trigger_without_staleness_is_a_noop(service, store):
    scheduler = _scheduler(service, max_stale_rows=None,
                           max_stale_fraction=None,
                           qerror_median_threshold=1.0, cooldown_seconds=120.0)
    scheduler.monitor.seed_probes(make_random_workload(
        store.snapshot(), num_queries=10, seed=2, label=False).queries)
    scheduler.poll_once()
    scheduler.poll_once()
    # The no-op burned no training, but it still starts the cooldown.
    assert _signature(scheduler) == [
        TUNE, ("decision", "refresh_noop"), ("decision", "cooldown")]


def test_failed_refresh_backs_off(service, store, monkeypatch):
    scheduler = _scheduler(service, failure_backoff_seconds=10.0)
    monkeypatch.setattr(DuetTrainer, "fine_tune", _raiser("trainer down"))
    _append_in_domain(store, 80, seed=4)
    scheduler.poll_once()
    scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("error", "refresh"), ("decision", "backoff")]


def test_breaker_opens_half_opens_and_closes(service, store, monkeypatch):
    scheduler = _scheduler(service, seeded=True, breaker_failure_threshold=2,
                           breaker_cooldown_seconds=0.5)
    real_fine_tune = DuetTrainer.__dict__["fine_tune"]
    monkeypatch.setattr(DuetTrainer, "fine_tune", _raiser("trainer down"))
    _append_in_domain(store, 80, seed=5)
    scheduler.poll_once()
    scheduler.poll_once()
    scheduler.poll_once()
    time.sleep(0.55)
    scheduler.poll_once()
    time.sleep(0.55)
    monkeypatch.setattr(DuetTrainer, "fine_tune", real_fine_tune)
    scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("error", "refresh"),
        TUNE, ("error", "refresh"), ("breaker", "open"),
        ("decision", "breaker_open"),
        ("breaker", "half_open"), TUNE, ("error", "refresh"),
        ("breaker", "open"),
        ("breaker", "half_open"), *SWAP, ("breaker", "closed")]


def test_failed_tune_leaves_the_cooldown_unconsumed(service, store,
                                                   monkeypatch):
    scheduler = _scheduler(service, cooldown_seconds=120.0)
    real_fine_tune = DuetTrainer.__dict__["fine_tune"]
    monkeypatch.setattr(DuetTrainer, "fine_tune", _raiser("transient"))
    _append_in_domain(store, 80, seed=6)
    scheduler.poll_once()
    monkeypatch.setattr(DuetTrainer, "fine_tune", real_fine_tune)
    scheduler.poll_once()
    _append_in_domain(store, 80, seed=7)
    scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("error", "refresh"), *SWAP, ("decision", "cooldown")]


def test_canary_rejected_refresh_starts_the_cooldown(service, store):
    scheduler = _scheduler(service, seeded=True, canary_margin=0.01,
                           cooldown_seconds=120.0)
    version = service.model_version
    _append_in_domain(store, 80, seed=3)
    scheduler.poll_once()
    scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("canary_reject", "refresh"), ("decision", "cooldown")]
    assert service.model_version == version


def test_growth_escalates_to_a_cold_train(service, store):
    scheduler = _scheduler(service)
    _append_growing(store, 100, seed=5)
    scheduler.poll_once()
    assert scheduler.quiesce(timeout=60.0)
    scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("cold_train", "started"), ("canary_pass", "cold_train"),
        ("cold_train", "swapped"), RETENTION, HOLD]


def test_growth_without_escalation_is_an_error(service, store):
    scheduler = _scheduler(service, cold_train_on_growth=False)
    _append_growing(store, 100, seed=5)
    scheduler.poll_once()
    assert _signature(scheduler) == [TUNE, ("error", "refresh")]


def test_canary_rejected_cold_train_starts_the_cooldown(service, store):
    scheduler = _scheduler(service, seeded=True, canary_margin=0.01,
                           cooldown_seconds=120.0)
    version = service.model_version
    _append_growing(store, 100, seed=5)
    scheduler.poll_once()
    assert scheduler.quiesce(timeout=60.0)
    scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("cold_train", "started"), ("canary_reject", "cold_train"),
        ("cold_train", "rejected"), ("decision", "cooldown")]
    assert service.model_version == version


def test_compaction_escalates_to_a_cold_train(service, store):
    scheduler = _scheduler(service)
    store.delete(np.arange(200))
    scheduler.poll_once()
    assert scheduler.quiesce(timeout=60.0)
    scheduler.poll_once()
    assert _signature(scheduler) == [
        ("compaction", None), ("cold_train", "started"),
        ("canary_pass", "cold_train"), ("cold_train", "swapped"), RETENTION,
        HOLD]


def test_compaction_failure_is_an_error(service, store, monkeypatch):
    scheduler = _scheduler(service, failure_backoff_seconds=30.0)
    store.delete(np.arange(200))
    monkeypatch.setattr(store, "compact_measured", _raiser("rewrite exploded"))
    scheduler.poll_once()
    scheduler.poll_once()
    assert _signature(scheduler) == [("error", "compaction"),
                                     ("decision", "backoff")]


def test_failed_cold_train_parks_compaction(service, store, monkeypatch):
    scheduler = _scheduler(service, max_stale_rows=None,
                           max_stale_fraction=None,
                           compact_tombstone_fraction=0.2,
                           failure_backoff_seconds=30.0)
    monkeypatch.setattr(DuetTrainer, "train", _raiser("trainer down"))
    store.delete(np.arange(150))
    scheduler.poll_once()
    assert scheduler.quiesce(timeout=30.0)
    store.delete(np.arange(80))
    scheduler.poll_once()
    assert _signature(scheduler) == [
        ("compaction", None), ("cold_train", "started"),
        ("error", "cold_train"), HOLD]


def test_seeded_fault_plan(service, store):
    scheduler = _scheduler(service, seeded=True, canary_margin=2.0)
    FaultInjector([
        FaultSpec(site="trainer.step", kind="raise"),
        FaultSpec(site="registry.save", kind="io_error"),
        FaultSpec(site="registry.manifest", kind="crash"),
    ], seed=11).arm(scheduler=scheduler, registry=service.registry,
                    store=store)
    _append_in_domain(store, 80, seed=31)
    for _ in range(5):
        scheduler.poll_once()
    assert _signature(scheduler) == [
        TUNE, ("error", "refresh"),
        TUNE, ("canary_pass", "refresh"), ("error", "refresh"),
        TUNE, ("canary_pass", "refresh"), ("error", "refresh"),
        *SWAP, HOLD]
