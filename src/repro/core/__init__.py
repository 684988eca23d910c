"""Duet core: the paper's primary contribution.

Public entry points:

* :class:`DuetConfig` / :func:`dmv_config` / :func:`small_table_config` —
  model and training configuration;
* :class:`DuetModel` — the predicate-conditioned autoregressive model;
* :class:`DuetTrainer` — data-driven and hybrid training (Algorithm 2);
* :class:`DuetEstimator` — sampling-free estimation (Algorithm 3);
* :class:`VirtualTableSampler` — virtual-table sampling (Algorithm 1);
* :class:`CardinalityEstimator` — the interface shared with all baselines.
"""

from ..data.store import DomainGrowthError
from .compiled import CompiledDuetModel, EstimationBreakdown
from .config import (
    DuetConfig,
    LifecyclePolicy,
    MPSNConfig,
    ObsConfig,
    ServingConfig,
    dmv_config,
    small_table_config,
)
from .disjunction import conjoin, estimate_disjunction
from .encoding import (
    CodeIntervals,
    ColumnPredicateEncoder,
    QueryCodec,
    binary_width,
    resolve_value_strategy,
)
from .estimator import DuetEstimator
from .interface import CardinalityEstimator
from .model import DuetModel
from .mpsn import MergedMLPInference, MLPMPSN, RecursiveMPSN, RNNMPSN, build_mpsn
from .trainer import DuetTrainer, EpochStats, TrainingHistory
from .virtual_table import PredicateGuidance, VirtualTableSampler, VirtualTupleBatch

__all__ = [
    "DuetConfig",
    "MPSNConfig",
    "ObsConfig",
    "ServingConfig",
    "LifecyclePolicy",
    "dmv_config",
    "small_table_config",
    "QueryCodec",
    "CodeIntervals",
    "ColumnPredicateEncoder",
    "binary_width",
    "resolve_value_strategy",
    "DuetModel",
    "DuetTrainer",
    "EpochStats",
    "TrainingHistory",
    "DuetEstimator",
    "EstimationBreakdown",
    "CompiledDuetModel",
    "VirtualTableSampler",
    "VirtualTupleBatch",
    "PredicateGuidance",
    "CardinalityEstimator",
    "DomainGrowthError",
    "conjoin",
    "estimate_disjunction",
    "MLPMPSN",
    "RNNMPSN",
    "RecursiveMPSN",
    "build_mpsn",
    "MergedMLPInference",
]
