"""Online estimation serving layer.

Turns the offline Duet reproduction into a production-style service:

* :class:`ModelRegistry` — persist trained models (parameters + table schema
  + :class:`~repro.core.DuetConfig`) keyed by ``(dataset, version)`` with a
  ``manifest.json`` index;
* :class:`EstimateCache` / :class:`QueryKeyEncoder` — LRU memoisation of
  estimates under canonical (order- and alias-insensitive) query keys;
* :class:`MicroBatcher` — coalesces concurrent single-query requests into
  vectorised ``estimate_batch`` forward passes;
* :class:`EstimationService` — the thread-safe frontend tying them together,
  with QPS / latency-percentile / hit-rate / occupancy statistics;
* :class:`~repro.core.ServingConfig` — every serving knob in one dataclass.

Quickstart::

    from repro.serving import ModelRegistry, EstimationService

    registry = ModelRegistry("./models")
    registry.save(trained.model, dataset="census")
    with EstimationService.from_registry(registry, "census") as service:
        service.estimate(query)          # thread-safe, cached, micro-batched
        print(service.snapshot())
"""

from ..core.config import ServingConfig
from .batcher import MicroBatcher
from .cache import EstimateCache, QueryKeyEncoder
from .registry import (
    ModelRegistry,
    QuarantinedVersion,
    RecoveryReport,
    RegistryEntry,
    SchemaTable,
    TableSchema,
)
from .service import EstimationService
from .stats import ServiceStats, StatsSnapshot

__all__ = [
    "ServingConfig",
    "ModelRegistry",
    "RegistryEntry",
    "QuarantinedVersion",
    "RecoveryReport",
    "TableSchema",
    "SchemaTable",
    "EstimateCache",
    "QueryKeyEncoder",
    "MicroBatcher",
    "EstimationService",
    "ServiceStats",
    "StatsSnapshot",
]
