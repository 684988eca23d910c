"""Algorithm 1: parallel vectorised sampling from the virtual table.

Duet does not learn from raw tuples.  For every tuple ``x`` drawn during
SGD, it samples a *virtual tuple* ``x' = (P_1, ..., P_N)`` — one predicate
per column — such that ``x`` satisfies every ``P_i``.  The model is then
trained to predict the distribution of ``x`` conditioned on ``x'``.

The paper's implementation (Algorithm 1) slices each batch per operator to
avoid expensive indexing in LibTorch and runs in a C++ extension, so that
sampling and the training step stay cheap enough to keep the model fresh.
Here the same algorithm is expressed with vectorised NumPy, and the step it
feeds is lowered the same way: for models without MPSNs,
:class:`~repro.core.train_step.CompiledTrainStep` runs forward, loss and
backward as plain NumPy GEMMs instead of on the autograd tape.  The
sampler:

* the batch is replicated ``mu`` times (expand coefficient) so each tuple is
  trained with several different virtual tuples per step;
* each column of each replica is assigned an operator slice (including a
  *wildcard* slice that leaves the column unconstrained, which is how the
  model learns to handle columns without predicates);
* per operator, the valid literal-code interval ``[lower, upper]`` that keeps
  the anchor value satisfying the predicate is computed, and a literal is
  drawn uniformly from it (the paper's uniform sampling under the
  "future queries are completely unknown" worst-case assumption);
* infeasible combinations (e.g. ``>`` on the smallest code) fall back to
  wildcard, mirroring the ``lower_bound < upper_bound`` mask of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workload.predicates import Operator
from .config import DuetConfig

__all__ = ["VirtualTupleBatch", "PredicateGuidance", "VirtualTableSampler"]

_OP_EQ = Operator.EQ.index
_OP_GT = Operator.GT.index
_OP_LT = Operator.LT.index
_OP_GE = Operator.GE.index
_OP_LE = Operator.LE.index
_WILDCARD = -1


@dataclass(frozen=True)
class VirtualTupleBatch:
    """One training batch sampled from the virtual table.

    Attributes
    ----------
    values:
        Literal codes, shape ``(batch, num_columns, max_predicates)``;
        ``-1`` marks an empty predicate slot.
    ops:
        Operator indices with the same shape and the same ``-1`` convention.
    labels:
        The anchor tuples' codes, shape ``(batch, num_columns)``; these are
        the cross-entropy targets.
    """

    values: np.ndarray
    ops: np.ndarray
    labels: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class PredicateGuidance:
    """Historical-workload statistics that bias Algorithm 1's sampling.

    The paper's Algorithm 1 samples predicates uniformly because it assumes
    nothing about future queries; §IV-C notes that when workloads have
    temporal locality, *importance sampling* guided by historical queries is
    possible.  This class holds the per-column statistics that guidance
    needs:

    * ``operator_weights[i]`` — relative frequency of each of the five
      operators on column ``i`` in the historical workload (plus the
      fraction of queries leaving the column unconstrained, used as the
      wildcard share), and
    * ``literal_histograms[i]`` — frequency of each literal code.

    Build one with :meth:`from_workload`.
    """

    operator_weights: list[np.ndarray]   # per column, length 6 (5 ops + wildcard)
    literal_histograms: list[np.ndarray]  # per column, length NDV

    @classmethod
    def from_workload(cls, table, workload) -> "PredicateGuidance":
        """Collect operator and literal statistics from a historical workload."""
        num_columns = table.num_columns
        operator_counts = [np.zeros(6) for _ in range(num_columns)]
        literal_counts = [np.zeros(column.num_distinct) for column in table.columns]
        for query in workload:
            constrained = set()
            for predicate in query.predicates:
                column_index = table.column_index(predicate.column)
                column = table.column(column_index)
                constrained.add(column_index)
                operator_counts[column_index][predicate.operator.index] += 1
                low, high = predicate.code_interval(column)
                if low <= high:
                    # Record the boundary code the predicate actually names:
                    # the upper end for <=/<, the lower end for >=/>/=.
                    boundary = high if predicate.operator in (Operator.LE, Operator.LT) else low
                    literal_counts[column_index][boundary] += 1
            for column_index in range(num_columns):
                if column_index not in constrained:
                    operator_counts[column_index][5] += 1
        operator_weights = []
        literal_histograms = []
        for column_index in range(num_columns):
            ops = operator_counts[column_index]
            operator_weights.append(ops / ops.sum() if ops.sum() > 0 else
                                    np.full(6, 1.0 / 6.0))
            literals = literal_counts[column_index]
            total = literals.sum()
            literal_histograms.append(literals / total if total > 0 else
                                      np.full(literals.size, 1.0 / literals.size))
        return cls(operator_weights=operator_weights, literal_histograms=literal_histograms)


class VirtualTableSampler:
    """Vectorised implementation of the paper's Algorithm 1.

    By default predicates are sampled uniformly (the paper's worst-case
    assumption about future queries).  Passing a :class:`PredicateGuidance`
    switches to importance sampling guided by a historical workload, the
    extension §IV-C describes for workloads with strong temporal locality.
    """

    def __init__(self, cardinalities: list[int], config: DuetConfig,
                 seed: int | None = None,
                 guidance: PredicateGuidance | None = None) -> None:
        if any(ndv <= 0 for ndv in cardinalities):
            raise ValueError("column cardinalities must be positive")
        self.cardinalities = list(cardinalities)
        self.config = config
        self.guidance = guidance
        self.max_predicates = (config.max_predicates_per_column
                               if config.multi_predicate else 1)
        self._rng = np.random.default_rng(config.seed if seed is None else seed)

    # ------------------------------------------------------------------
    def sample_batch(self, tuple_codes: np.ndarray) -> VirtualTupleBatch:
        """Sample virtual tuples for a batch of anchor tuples.

        ``tuple_codes`` has shape ``(batch, num_columns)``.  The anchors are
        replicated ``mu`` times, so the output batch is ``mu`` times larger.
        """
        tuple_codes = np.asarray(tuple_codes, dtype=np.int64)
        if tuple_codes.ndim != 2 or tuple_codes.shape[1] != len(self.cardinalities):
            raise ValueError(f"expected tuples of shape (batch, {len(self.cardinalities)})")
        labels = np.repeat(tuple_codes, self.config.expand_coefficient, axis=0)
        batch, num_columns = labels.shape

        values = np.full((batch, num_columns, self.max_predicates), _WILDCARD, dtype=np.int64)
        ops = np.full((batch, num_columns, self.max_predicates), _WILDCARD, dtype=np.int64)

        for column_index in range(num_columns):
            anchor = labels[:, column_index]
            ops_0, values_0 = self._sample_column(anchor, column_index)
            ops[:, column_index, 0] = ops_0
            values[:, column_index, 0] = values_0
            # Additional predicate slots (MPSN training): each extra slot is
            # filled for roughly half of the rows that already have one
            # predicate, again with an operator the anchor satisfies.
            for slot in range(1, self.max_predicates):
                extra_mask = (ops_0 >= 0) & (self._rng.uniform(size=batch) < 0.5)
                if not extra_mask.any():
                    continue
                ops_extra, values_extra = self._sample_column(
                    anchor, column_index, allow_wildcard=False)
                ops[extra_mask, column_index, slot] = ops_extra[extra_mask]
                values[extra_mask, column_index, slot] = values_extra[extra_mask]
        return VirtualTupleBatch(values=values, ops=ops, labels=labels)

    # ------------------------------------------------------------------
    def _operator_slices(self, batch: int, allow_wildcard: bool,
                         column_index: int | None = None) -> np.ndarray:
        """Assign an operator (or wildcard) to each row by contiguous slices.

        This mirrors Algorithm 1's ``DivideDataBatch``: rather than drawing
        one operator per row, the (already shuffled) batch is cut into one
        slice per operator kind, which keeps the sampling fully vectorised.
        A random permutation of the operator kinds prevents any systematic
        pairing of rows with operators across columns.

        With guidance attached, the slice sizes follow the historical
        operator frequencies of the column instead of being uniform
        (importance sampling, §IV-C).
        """
        kinds = [_OP_EQ, _OP_GT, _OP_LT, _OP_GE, _OP_LE]
        if self.guidance is not None and column_index is not None:
            guided = self.guidance.operator_weights[column_index].copy()
            if allow_wildcard:
                kinds.append(_WILDCARD)
                # Never let any kind starve completely: keep 5% uniform mass.
                weights = 0.95 * guided + 0.05 / 6.0
            else:
                weights = 0.95 * guided[:5] + 0.05 / 5.0
            weights = weights / weights.sum()
        elif allow_wildcard and self.config.wildcard_probability > 0:
            kinds.append(_WILDCARD)
            share = self.config.wildcard_probability
            weights = np.concatenate([np.full(5, (1 - share) / 5.0), [share]])
        else:
            weights = np.full(len(kinds), 1.0 / len(kinds))
        order = self._rng.permutation(len(kinds))
        kinds = [kinds[i] for i in order]
        weights = weights[order]
        boundaries = np.floor(np.cumsum(weights) * batch).astype(np.int64)
        boundaries[-1] = batch
        assignment = np.empty(batch, dtype=np.int64)
        start = 0
        for kind, end in zip(kinds, boundaries):
            assignment[start:end] = kind
            start = end
        # The rows reaching this sampler were already shuffled by the trainer,
        # but shuffle the assignment as well so repeated epochs decorrelate.
        return self._rng.permutation(assignment)

    def _sample_column(self, anchor: np.ndarray, column_index: int,
                       allow_wildcard: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Sample one predicate slot for every row of one column."""
        num_distinct = self.cardinalities[column_index]
        batch = anchor.shape[0]
        assigned = self._operator_slices(batch, allow_wildcard, column_index)
        lower = np.zeros(batch, dtype=np.int64)
        upper = np.full(batch, num_distinct - 1, dtype=np.int64)

        lower = np.where(assigned == _OP_EQ, anchor, lower)
        upper = np.where(assigned == _OP_EQ, anchor, upper)
        # "> v" is satisfied by the anchor when v < anchor  -> v in [0, anchor-1]
        upper = np.where(assigned == _OP_GT, anchor - 1, upper)
        # "< v" is satisfied when v > anchor               -> v in [anchor+1, last]
        lower = np.where(assigned == _OP_LT, anchor + 1, lower)
        # ">= v" is satisfied when v <= anchor             -> v in [0, anchor]
        upper = np.where(assigned == _OP_GE, anchor, upper)
        # "<= v" is satisfied when v >= anchor             -> v in [anchor, last]
        lower = np.where(assigned == _OP_LE, anchor, lower)

        feasible = (lower <= upper) & (assigned != _WILDCARD)
        literals = self._draw_literals(column_index, lower, upper)

        ops = np.where(feasible, assigned, _WILDCARD)
        values = np.where(feasible, literals, _WILDCARD)
        return ops, values

    def _draw_literals(self, column_index: int, lower: np.ndarray,
                       upper: np.ndarray) -> np.ndarray:
        """Draw one literal code per row inside ``[lower, upper]``.

        Uniform by default; with guidance attached, draws follow the
        historical literal histogram restricted to the feasible interval
        (falling back to uniform where the restricted mass is zero).
        """
        batch = lower.shape[0]
        span = np.maximum(upper - lower + 1, 1)
        offsets = np.floor(self._rng.uniform(size=batch) * span).astype(np.int64)
        uniform_literals = lower + np.minimum(offsets, span - 1)
        if self.guidance is None:
            return uniform_literals

        histogram = self.guidance.literal_histograms[column_index]
        cumulative = np.concatenate([[0.0], np.cumsum(histogram)])
        low_clipped = np.clip(lower, 0, histogram.size - 1)
        high_clipped = np.clip(upper, 0, histogram.size - 1)
        mass_low = cumulative[low_clipped]
        mass_high = cumulative[high_clipped + 1]
        restricted_mass = mass_high - mass_low
        draws = mass_low + self._rng.uniform(size=batch) * restricted_mass
        guided_literals = np.searchsorted(cumulative, draws, side="right") - 1
        guided_literals = np.clip(guided_literals, low_clipped, high_clipped)
        return np.where(restricted_mass > 1e-12, guided_literals, uniform_literals)

    # ------------------------------------------------------------------
    def verify_batch(self, batch: VirtualTupleBatch) -> bool:
        """Check the core invariant: every anchor satisfies its virtual tuple.

        Used by tests and by failure-injection checks; returns True when the
        invariant holds for every (row, column, slot).
        """
        comparisons = {
            _OP_EQ: lambda anchor, literal: anchor == literal,
            _OP_GT: lambda anchor, literal: anchor > literal,
            _OP_LT: lambda anchor, literal: anchor < literal,
            _OP_GE: lambda anchor, literal: anchor >= literal,
            _OP_LE: lambda anchor, literal: anchor <= literal,
        }
        for slot in range(batch.ops.shape[2]):
            for op_index, comparison in comparisons.items():
                mask = batch.ops[:, :, slot] == op_index
                if not mask.any():
                    continue
                anchors = batch.labels[mask]
                literals = batch.values[:, :, slot][mask]
                if not comparison(anchors, literals).all():
                    return False
        return True
