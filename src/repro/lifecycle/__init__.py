"""Autonomous lifecycle controller: the control plane over store → serving.

PR 3 made the data mutable and the model refreshable; this package makes
the loop close itself.  Five cooperating parts:

* :class:`DriftMonitor` — taps the served query stream into a sliding-window
  probe set, relabels it incrementally against the live store, and combines
  observed Q-Error drift with staleness thresholds into a typed
  :class:`RefreshDecision`;
* :class:`RefreshScheduler` — a daemon-thread policy loop with debounce,
  cooldown, and backpressure (at most one tune in flight; tuning yields to
  serving in bounded batch slices) that drives
  :meth:`~repro.serving.EstimationService.tune`;
* cold-train escalation (:func:`cold_train_and_swap`) — when a tune hits
  a :class:`~repro.data.DomainGrowthError`, a fresh model is trained on the
  new snapshot in the background and swapped in atomically;
* :class:`RetentionPolicy` — prunes superseded registry versions and trims
  unreachable store version metadata after every successful tune;
* :class:`CompactionPolicy` — when deletes push the store's tombstone
  fraction past the policy threshold, rewrites the chunks to drop dead rows
  and escalates to the cold-train/swap path (deltas cannot span the new
  chunk layout);
* :class:`ShadowEvaluator` — canary gate in front of every swap: candidates
  are shadow-evaluated on the drift probe set and rejected when worse than
  the incumbent by more than the policy margin;
* :class:`FaultInjector` — deterministic seeded fault plans
  (:class:`FaultSpec`) threaded through trainer/registry/store seams, so
  the whole control plane can be chaos-tested reproducibly.

Every tune attempt — fine-tune, cold train, compaction escalation — ends in
one :class:`~repro.serving.TuneOutcome`, and the scheduler admits each
attempt by one rule.  The scheduler also carries the failure half of the
control plane: exponential backoff on consecutive tune failures and a
circuit breaker that parks the tune path entirely after too many,
half-opening for a trial after a cooldown.  Everything the controller does lands in a structured
:class:`EventLog`.  All knobs live in :class:`~repro.core.LifecyclePolicy`.

Quickstart::

    from repro.core import LifecyclePolicy
    from repro.lifecycle import RefreshScheduler

    policy = LifecyclePolicy(max_stale_fraction=0.2, cooldown_seconds=60)
    with RefreshScheduler(service, policy):   # service has store + registry
        serve_traffic(service)                # refreshes happen on their own
"""

from .coldtrain import cold_train_and_swap, start_cold_train
from .compaction import CompactionPolicy, CompactionReport
from .events import EventLog, LifecycleEvent
from .faults import FaultInjector, FaultSpec, InjectedFault, SimulatedCrash
from .monitor import DriftMetrics, DriftMonitor, RefreshDecision
from .retention import RetentionPolicy, RetentionReport
from .scheduler import RefreshScheduler
from .shadow import CanaryReport, ShadowEvaluator

__all__ = [
    "LifecycleEvent",
    "EventLog",
    "DriftMetrics",
    "RefreshDecision",
    "DriftMonitor",
    "RefreshScheduler",
    "cold_train_and_swap",
    "start_cold_train",
    "RetentionPolicy",
    "RetentionReport",
    "CompactionPolicy",
    "CompactionReport",
    "CanaryReport",
    "ShadowEvaluator",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "SimulatedCrash",
]
