"""Tests of the fault-tolerant control plane: the deterministic fault
injector, canary-gated swaps (ShadowEvaluator + scheduler wiring), the
refresh scheduler's failure backoff and circuit breaker, the failed-swap /
failed-tune regression fixes, poll-loop error containment, and the chaos
acceptance run (seeded faults across trainer/registry with zero failed
estimate requests and a recoverable registry).
"""

import threading
import time
from concurrent.futures import Future

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
    InjectedFault,
    RefreshScheduler,
    ShadowEvaluator,
    SimulatedCrash,
    cold_train_and_swap,
)
from repro.serving import EstimationService, ModelRegistry, TuneOutcome
from repro.workload import make_random_workload

CONFIG = DuetConfig(hidden_sizes=(16, 16), epochs=1, batch_size=128,
                    expand_coefficient=1, lambda_query=0.0, seed=0)

#: eager knobs (no debounce/cooldown) with the failure machinery wide open:
#: zero backoff and no breaker, so synchronous polls are never parked
EAGER = LifecyclePolicy(poll_interval_seconds=0.02, max_stale_rows=50,
                        max_stale_fraction=0.1, probe_sample_rate=1.0,
                        min_probe_queries=5, debounce_polls=1,
                        cooldown_seconds=0.0, refresh_epochs=1,
                        cold_train_epochs=1, keep_model_versions=2,
                        tune_yield_seconds=0.0,
                        failure_backoff_seconds=0.0,
                        breaker_failure_threshold=None)


@pytest.fixture()
def store() -> ColumnStore:
    rng = np.random.default_rng(0)
    table = Table.from_dict("lifecycle", {
        "age": rng.integers(18, 60, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })
    return ColumnStore.from_table(table)


def _make_service(store, tmp_path, config=CONFIG):
    base = store.snapshot()
    model = DuetModel(base, config)
    DuetTrainer(model, base, config=config).train(1)
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="lifecycle")
    return EstimationService.from_registry(
        registry, "lifecycle", store=store,
        config=ServingConfig(max_wait_ms=0.2))


def _append_in_domain(store: ColumnStore, count: int, seed: int):
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    return store.append({
        name: snapshot.column(name).distinct_values[
            rng.integers(0, snapshot.column(name).num_distinct, size=count)]
        for name in snapshot.column_names
    })


def _seeded_monitor(service, policy=EAGER, num_probes=20):
    monitor = DriftMonitor(service, policy)
    workload = make_random_workload(service.store.snapshot(),
                                    num_queries=num_probes, seed=17,
                                    label=False)
    monitor.seed_probes(workload.queries)
    return monitor


def _raiser(message="boom"):
    def fail(*args, **kwargs):
        raise RuntimeError(message)
    return fail


def _degraded_model(store, seed=13) -> DuetModel:
    """A deliberately broken candidate: parameters saturated with noise.

    (A merely *untrained* model is not reliably worse on the probe median —
    these probe sets contain easy queries any smooth model gets right.)
    """
    rng = np.random.default_rng(seed)
    model = DuetModel(store.snapshot(), CONFIG)
    for parameter in model.parameters():
        parameter.data[...] = rng.normal(0.0, 25.0, size=parameter.data.shape)
    return model


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_kinds_map_to_exceptions(self):
        injector = FaultInjector([
            FaultSpec(site="a", kind="raise"),
            FaultSpec(site="b", kind="io_error"),
            FaultSpec(site="c", kind="crash"),
        ])
        with pytest.raises(InjectedFault):
            injector.fire("a")
        with pytest.raises(OSError):
            injector.fire("b")
        with pytest.raises(SimulatedCrash):
            injector.fire("c")
        assert injector.counts() == {"a:raise": 1, "b:io_error": 1,
                                     "c:crash": 1}
        assert injector.total_injected == 3

    def test_stall_sleeps_instead_of_raising(self):
        injector = FaultInjector([
            FaultSpec(site="slow", kind="stall", stall_seconds=0.05)])
        started = time.perf_counter()
        injector.fire("slow")
        assert time.perf_counter() - started >= 0.05
        assert injector.counts() == {"slow:stall": 1}

    def test_after_and_times_window_the_firings(self):
        injector = FaultInjector([
            FaultSpec(site="s", kind="raise", after=2, times=2)])
        outcomes = []
        for _ in range(6):
            try:
                injector.fire("s")
                outcomes.append(False)
            except InjectedFault:
                outcomes.append(True)
        # skips opportunities 1-2, fires on 3-4, then the budget is spent
        assert outcomes == [False, False, True, True, False, False]
        assert injector.total_injected == 2

    def test_unknown_site_is_a_noop(self):
        injector = FaultInjector([FaultSpec(site="s", kind="raise")])
        injector.fire("other")
        assert injector.total_injected == 0

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            injector = FaultInjector(
                [FaultSpec(site="s", kind="raise", probability=0.4,
                           times=None)], seed=seed)
            fired = []
            for _ in range(40):
                try:
                    injector.fire("s")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert any(pattern(7)) and not all(pattern(7))

    @pytest.mark.parametrize("bad", [
        dict(site="s", kind="explode"),
        dict(site=""),
        dict(site="s", probability=1.5),
        dict(site="s", times=0),
        dict(site="s", after=-1),
        dict(site="s", stall_seconds=-0.1),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_arm_and_disarm_install_the_hooks(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            injector = FaultInjector([FaultSpec(site="store.append",
                                                kind="io_error")])
            injector.arm(scheduler=scheduler, registry=service.registry,
                         store=store)
            assert scheduler.fault_injector is injector
            assert service.registry.fault_hook is injector
            with pytest.raises(OSError):
                _append_in_domain(store, 5, seed=1)
            FaultInjector.disarm(scheduler=scheduler,
                                 registry=service.registry, store=store)
            assert store.fault_hook is None
            _append_in_domain(store, 5, seed=2)  # seam is quiet again


# ----------------------------------------------------------------------
# Shadow evaluation (canary gate)
# ----------------------------------------------------------------------
class TestShadowEvaluator:
    def test_served_model_judges_itself_a_pass(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            shadow = ShadowEvaluator(_seeded_monitor(service))
            report = shadow.evaluate(service.estimator.model)
            assert report.passed
            assert report.reason == "pass"
            # identical model, identical probes: medians must agree
            assert report.candidate_median == pytest.approx(
                report.incumbent_median)
            assert report.probe_size == 20

    def test_degraded_candidate_is_rejected(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            shadow = ShadowEvaluator(_seeded_monitor(service))
            report = shadow.evaluate(_degraded_model(store))
            assert not report.passed
            assert report.reason == "degraded"
            assert report.candidate_median > report.incumbent_median

    def test_insufficient_probes_abstain_pass(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            shadow = ShadowEvaluator(DriftMonitor(service, EAGER))  # empty window
            report = shadow.evaluate(service.estimator.model)
            assert report.passed
            assert report.reason == "insufficient_probes"
            assert report.candidate_median is None

    def test_margin_none_disables_the_gate(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            policy = LifecyclePolicy(canary_margin=None)
            shadow = ShadowEvaluator(DriftMonitor(service, policy))
            assert not shadow.enabled
            with pytest.raises(RuntimeError, match="disabled"):
                shadow.evaluate(service.estimator.model)
            scheduler = RefreshScheduler(service, policy)
            assert scheduler._canary_gate("refresh") is None


class TestCanaryGating:
    def test_scheduler_gate_records_pass_and_reject(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER,
                                         monitor=_seeded_monitor(service))
            gate = scheduler._canary_gate("refresh")
            assert gate(service.estimator.model) is True
            assert scheduler.events.last("canary_pass").details["stage"] == \
                "refresh"
            assert gate(_degraded_model(store)) is False
            reject = scheduler.events.last("canary_reject")
            assert reject.details["reason"] == "degraded"
            assert reject.details["candidate_median"] > \
                reject.details["incumbent_median"]

    def test_gate_errors_fail_open(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER,
                                         monitor=_seeded_monitor(service))
            scheduler.shadow.evaluate = _raiser("canary exploded")
            gate = scheduler._canary_gate("refresh")
            assert gate(service.estimator.model) is True  # fail open
            assert scheduler.events.last("error").details["stage"] == \
                "canary_refresh"

    def test_rejected_refresh_keeps_incumbent_serving(self, store, tmp_path):
        """A degraded candidate must not swap in, register, or count as a
        refresh — and the wasted tune still consumes the cooldown."""
        policy = LifecyclePolicy(**{**_policy_kwargs(EAGER),
                                    "canary_margin": 0.01,
                                    "cooldown_seconds": 120.0})
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy,
                                         monitor=_seeded_monitor(service,
                                                                 policy))
            versions_before = service.registry.versions("lifecycle")
            version_before = service.model_version
            _append_in_domain(store, 80, seed=3)
            event = scheduler.poll_once()
            assert event.details["action"] == "tune"
            assert scheduler.events.count("canary_reject") == 1
            assert scheduler.events.count("refresh") == 0
            assert service.model_version == version_before
            assert service.registry.versions("lifecycle") == versions_before
            # rejection is not a fault: breaker stays closed, no backoff,
            # but the burned cycles start a cooldown
            assert scheduler.breaker_state == "closed"
            assert scheduler.parked == "cooldown"

    def test_rejected_cold_train_keeps_incumbent(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            served = service.estimator.model
            versions_before = service.registry.versions("lifecycle")
            outcome = cold_train_and_swap(service, epochs=1,
                                          gate=lambda model: False)
            assert outcome.status == "rejected"
            assert outcome.error is None and outcome.entry is None
            assert service.estimator.model is served
            assert service.registry.versions("lifecycle") == versions_before

    def test_finalise_reports_rejected_cold_train(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            pending = Future()
            pending.set_result(TuneOutcome(
                "rejected", data_version=service.data_version))
            scheduler._cold_train = pending
            event = scheduler.poll_once()
            assert event.kind == "cold_train"
            assert event.details["status"] == "rejected"
            assert scheduler._cold_train is None
            assert scheduler.breaker_state == "closed"


def _policy_kwargs(policy: LifecyclePolicy) -> dict:
    import dataclasses
    return dataclasses.asdict(policy)


# ----------------------------------------------------------------------
# Failure backoff + circuit breaker
# ----------------------------------------------------------------------
class TestBreakerAndBackoff:
    def _scheduler(self, service, **overrides):
        policy = LifecyclePolicy(**{**_policy_kwargs(EAGER), **overrides})
        return RefreshScheduler(service, policy,
                                monitor=_seeded_monitor(service, policy))

    def test_failure_starts_exponential_backoff(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = self._scheduler(service, failure_backoff_seconds=10.0,
                                        failure_backoff_max_seconds=15.0)
            service.tune = _raiser("trainer down")
            _append_in_domain(store, 80, seed=4)
            assert scheduler.poll_once().details["action"] == "tune"
            assert scheduler.events.last("error").details["stage"] == "refresh"
            # parked: the very next poll does not retry
            assert scheduler.poll_once().details["action"] == "backoff"
            assert scheduler._next_tune_at - time.monotonic() == \
                pytest.approx(10.0, abs=1.0)
            # a second failure (forced through) doubles the delay, capped
            scheduler._next_tune_at = float("-inf")
            assert scheduler.poll_once().details["action"] == "tune"
            assert scheduler.parked == "backoff"
            assert scheduler._next_tune_at - time.monotonic() == \
                pytest.approx(15.0, abs=1.0)  # min(10 * 2, cap 15)
            assert scheduler._consecutive_failures == 2

    def test_breaker_opens_after_threshold_and_recovers(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = self._scheduler(service, breaker_failure_threshold=2,
                                        breaker_cooldown_seconds=60.0)
            real_tune = service.tune
            service.tune = _raiser("trainer down")
            _append_in_domain(store, 80, seed=5)
            assert scheduler.poll_once().details["action"] == "tune"
            assert scheduler.breaker_state == "closed"
            assert scheduler.poll_once().details["action"] == "tune"
            assert scheduler.breaker_state == "open"
            opened = scheduler.events.last("breaker")
            assert opened.details["state"] == "open"
            assert opened.details["consecutive_failures"] == 2
            # open: polls refuse to tune, no new error events pile up
            errors_before = scheduler.events.count("error")
            assert scheduler.poll_once().details["action"] == "breaker_open"
            assert scheduler.events.count("error") == errors_before
            # cooldown elapses -> half-open trial; still failing -> re-open
            scheduler._next_tune_at -= 61.0
            assert scheduler.poll_once().details["action"] == "tune"
            assert scheduler.breaker_state == "open"
            # cooldown again, trainer fixed -> trial succeeds, breaker closes
            scheduler._next_tune_at -= 61.0
            service.tune = real_tune
            event = scheduler.poll_once()
            assert event.details["action"] == "tune"
            assert scheduler.breaker_state == "closed"
            assert scheduler.events.count("refresh") == 1
            assert [e.details["state"]
                    for e in scheduler.events.events("breaker")] == [
                "open", "half_open", "open", "half_open", "closed"]
            assert scheduler._consecutive_failures == 0

    def test_failed_tune_does_not_consume_the_cooldown(self, store, tmp_path):
        """Regression: a *failed* refresh once parked the scheduler for
        cooldown_seconds and delayed the recovery it never earned."""
        with _make_service(store, tmp_path) as service:
            scheduler = self._scheduler(service, cooldown_seconds=120.0)
            real_tune = service.tune
            service.tune = _raiser("transient")
            _append_in_domain(store, 80, seed=6)
            assert scheduler.poll_once().details["action"] == "tune"
            assert scheduler.events.last("error").details["stage"] == "refresh"
            assert scheduler.parked is None  # failure != tune (no backoff)
            service.tune = real_tune
            event = scheduler.poll_once()  # retries immediately, no cooldown
            assert event.details["action"] == "tune"
            assert scheduler.events.count("refresh") == 1
            assert scheduler.parked == "cooldown"  # the *success* started one

    def test_failed_cold_train_parks_compaction_reescalation(
            self, store, tmp_path, monkeypatch):
        """Regression: a failed compaction-escalated cold train must not be
        re-escalated by _maybe_compact on the very next poll."""
        policy = LifecyclePolicy(**{
            **_policy_kwargs(EAGER), "max_stale_rows": None,
            "max_stale_fraction": None, "compact_tombstone_fraction": 0.2,
            "failure_backoff_seconds": 30.0})
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy)
            monkeypatch.setattr(DuetTrainer, "train",
                                _raiser("trainer down"))
            store.delete(np.arange(150))  # 150/400 tombstoned
            assert scheduler.poll_once().kind == "compaction"
            assert scheduler.quiesce(timeout=30.0)
            assert scheduler.events.last("error").details["stage"] == \
                "cold_train"
            assert scheduler.parked == "backoff"
            # tombstones pile up again, but the backoff parks re-escalation
            store.delete(np.arange(80))
            assert store.tombstone_fraction > 0.2
            assert scheduler.poll_once().kind == "decision"
            assert scheduler.events.count("compaction") == 1
            assert not scheduler.cold_train_in_flight


# ----------------------------------------------------------------------
# Poll-loop error containment
# ----------------------------------------------------------------------
class TestErrorContainment:
    def test_loop_survives_raising_components(self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, EAGER)
            scheduler.compaction.should_compact = _raiser("compaction check")
            scheduler.monitor.decide = _raiser("monitor down")
            with scheduler:
                deadline = time.monotonic() + 10.0
                while (scheduler.events.count("error") < 3
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert scheduler.running
                errors = scheduler.events.events("error")
                assert len(errors) >= 3
                assert all(event.details["stage"] == "poll"
                           for event in errors)
            # the tune lock never leaked
            assert scheduler._tune_lock.acquire(blocking=False)
            scheduler._tune_lock.release()


# ----------------------------------------------------------------------
# Failed-swap rollback (the orphaned-"latest" regression)
# ----------------------------------------------------------------------
class TestFailedSwapRollback:
    def test_cold_train_swap_failure_discards_the_registered_version(
            self, store, tmp_path):
        """Regression: cold_train_and_swap registered the candidate before
        swapping; a failed swap left a registered-but-never-served "latest"
        that RetentionPolicy.prune protected forever."""
        with _make_service(store, tmp_path) as service:
            versions_before = service.registry.versions("lifecycle")
            latest_before = service.registry.latest_version("lifecycle")
            service._install = _raiser("install exploded")
            outcome = cold_train_and_swap(service, epochs=1)
            assert outcome.status == "failed"
            assert "install exploded" in repr(outcome.error)
            assert outcome.entry is None
            assert service.registry.versions("lifecycle") == versions_before
            assert service.registry.latest_version("lifecycle") == \
                latest_before
            assert service.registry.load_estimator("lifecycle") is not None

    def test_refresh_install_failure_discards_the_registered_version(
            self, store, tmp_path):
        with _make_service(store, tmp_path) as service:
            versions_before = service.registry.versions("lifecycle")
            _append_in_domain(store, 60, seed=8)
            service._install = _raiser("install exploded")
            with pytest.raises(RuntimeError, match="install exploded"):
                service.refresh(epochs=1)
            assert service.registry.versions("lifecycle") == versions_before
            assert service.registry.load_estimator("lifecycle") is not None


# ----------------------------------------------------------------------
# Chaos acceptance: seeded faults, zero failed requests, recoverable state
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_seeded_fault_plan_never_fails_serving(self, store, tmp_path):
        """The ISSUE's acceptance run, synchronous and deterministic: a
        trainer fault, a registry I/O error, and a crash-simulated partial
        checkpoint hit consecutive tunes while request hammers run; no
        estimate ever fails, the fourth tune lands with a canary pass, and
        recover() quarantines everything the faults left behind."""
        policy = LifecyclePolicy(**{**_policy_kwargs(EAGER),
                                    "canary_margin": 2.0})
        with _make_service(store, tmp_path) as service:
            scheduler = RefreshScheduler(service, policy,
                                         monitor=_seeded_monitor(service,
                                                                 policy))
            injector = FaultInjector([
                FaultSpec(site="trainer.step", kind="raise"),
                FaultSpec(site="registry.save", kind="io_error"),
                FaultSpec(site="registry.manifest", kind="crash"),
            ], seed=11)
            injector.arm(scheduler=scheduler, registry=service.registry,
                         store=store)

            workload = make_random_workload(store.snapshot(), num_queries=40,
                                            seed=23, label=False)
            stop = threading.Event()
            request_errors = [0] * 4

            def hammer(index: int) -> None:
                rng = np.random.default_rng(index)
                while not stop.is_set():
                    query = workload.queries[int(rng.integers(0,
                                                              len(workload)))]
                    try:
                        service.estimate(query)
                    except Exception:  # noqa: BLE001 — the acceptance count
                        request_errors[index] += 1

            threads = [threading.Thread(target=hammer, args=(index,),
                                        daemon=True) for index in range(4)]
            for thread in threads:
                thread.start()
            try:
                _append_in_domain(store, 80, seed=31)
                # tune 1: InjectedFault out of the training loop
                assert scheduler.poll_once().details["action"] == "tune"
                assert scheduler.events.last("error").details["stage"] == \
                    "refresh"
                # tune 2: registry save fails with an I/O error
                assert scheduler.poll_once().details["action"] == "tune"
                assert "OSError" in \
                    scheduler.events.last("error").details["error"]
                # tune 3: crash between checkpoint files and manifest commit
                assert scheduler.poll_once().details["action"] == "tune"
                assert "SimulatedCrash" in \
                    scheduler.events.last("error").details["error"]
                # tune 4: fault budget exhausted; canary-gated swap lands
                event = scheduler.poll_once()
                assert event.details["action"] == "tune"
                assert scheduler.events.count("refresh") == 1
                # every surviving tune was canary-evaluated (tunes 2 and 3
                # passed the gate before their registry faults hit)
                assert scheduler.events.count("canary_pass") >= 1
                assert scheduler.events.count("canary_reject") == 0
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert sum(request_errors) == 0
            assert injector.total_injected == 3
            injector.disarm(scheduler=scheduler, registry=service.registry,
                            store=store)

            # A deliberately degraded candidate is still turned away.
            gate = scheduler._canary_gate("refresh")
            assert gate(_degraded_model(store)) is False
            assert scheduler.events.count("canary_reject") == 1

            registry_root = service.registry.root
            serving_version = service.model_version
            # Corrupt the superseded version on disk.
            corrupt = registry_root / "lifecycle" / "v1" / "model.npz"
            corrupt.write_bytes(b"bit rot")

        # Cold start over the crashed+corrupted state: the partial
        # checkpoint (orphan dir, tune 3's crash re-saved it as the next
        # version) and the corrupt entry are quarantined; the survivor
        # still serves.
        fresh = ModelRegistry(registry_root)
        report = fresh.recover()
        reasons = {(q.version, q.reason) for q in report.quarantined}
        assert ("v1", "checksum_mismatch") in reasons
        assert fresh.latest_version("lifecycle") == serving_version
        assert fresh.load_estimator("lifecycle") is not None
        assert fresh.recover().clean
