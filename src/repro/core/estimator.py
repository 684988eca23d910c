"""Algorithm 3: sampling-free cardinality estimation with a single forward pass.

Two execution paths share the same query translation and code intervals:

* the **compiled path** runs a lowered
  :class:`~repro.core.compiled.CompiledDuetModel` — masks folded, buffers
  reused, fused interval selectivity, ``float32`` unless asked otherwise.  It is the one
  path the serving layer drives (:meth:`DuetEstimator.plan_for` hands it the
  plan), and :meth:`DuetEstimator.compile` makes it this estimator's
  default too;
* the **tape path** runs through the autograd :class:`~repro.nn.Tensor`
  graph — differentiable, used for training and as the equivalence oracle
  (``estimate_batch_with_breakdown(..., compiled=False)``); it zeroes out
  with the dense masks the intervals derive
  (:meth:`~repro.core.encoding.CodeIntervals.dense_masks`).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..nn import PlanOptions, no_grad
from ..workload.query import Query
from .compiled import CompiledDuetModel, EstimationBreakdown
from .interface import CardinalityEstimator
from .model import DuetModel

__all__ = ["DuetEstimator"]


class DuetEstimator(CardinalityEstimator):
    """The paper's estimator: deterministic, O(1) forward passes per query."""

    name = "duet"

    def __init__(self, model: DuetModel) -> None:
        super().__init__(model.table)
        self.model = model
        self._compiled: CompiledDuetModel | None = None
        self._use_compiled = False
        #: registry version this estimator was loaded from (set by
        #: ModelRegistry.load_estimator; None for ad-hoc estimators)
        self.model_version: str | None = None
        #: store version of the data the model was trained on; picked up
        #: from a Snapshot table when available, else set by the registry
        self.data_version: int | None = getattr(model.table, "data_version", None)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, options: PlanOptions | None = None) -> "DuetEstimator":
        """Lower the model into a grad-free plan and make it the default path.

        Weights are snapshotted at compile time — call ``compile()`` again
        after further training to refresh the plan.  Returns ``self`` so
        ``DuetEstimator(model).compile()`` reads naturally.
        """
        self._compiled = CompiledDuetModel(self.model, options)
        self._use_compiled = True
        return self

    @property
    def compiled(self) -> bool:
        """Whether estimates run through the compiled plan by default."""
        return self._use_compiled and self._compiled is not None

    @property
    def compile_options(self) -> PlanOptions | None:
        """Options of the active compiled plan (``None`` when uncompiled).

        Guarded by :attr:`compiled`, not just plan presence: an explicit
        ``estimate_batch_with_breakdown(..., compiled=True)`` caches a plan
        without flipping the default path, and must not make this estimator
        look compiled to callers that persist or branch on the options.
        """
        return self._compiled.options if self.compiled else None

    def plan_for(self, options: PlanOptions | None = None) -> CompiledDuetModel:
        """A compiled plan of the current weights with ``options``.

        Shares this estimator's own plan when its options match and it was
        lowered from the current model (plans serialise on their own lock,
        so sharing is safe); otherwise builds a private plan.  Either way the
        estimator's default path is not flipped, so the tape stays available
        as the equivalence oracle.
        """
        options = options or PlanOptions()
        plan = self._compiled
        if plan is not None and plan.options == options and plan.model is self.model:
            return plan
        return CompiledDuetModel(self.model, options)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        return float(self.estimate_batch([query])[0])

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        estimates, _ = self.estimate_batch_with_breakdown(queries)
        return estimates

    def estimate_batch_with_breakdown(
        self, queries: Sequence[Query], compiled: bool | None = None
    ) -> tuple[np.ndarray, EstimationBreakdown]:
        """Estimate a batch and report the encoding/inference time split.

        ``compiled`` forces a path: ``True`` uses the lowered plan (compiling
        with default options on first use), ``False`` the tape path, ``None``
        (default) whatever :meth:`compile` selected.
        """
        use_compiled = self.compiled if compiled is None else compiled
        if use_compiled:
            if self._compiled is None:
                self._compiled = CompiledDuetModel(self.model)
            return self._compiled.estimate_with_breakdown(queries)
        return self._tape_batch(list(queries))

    def _tape_batch(self, queries: list[Query]
                    ) -> tuple[np.ndarray, EstimationBreakdown]:
        """The autograd pass, mirroring :meth:`CompiledDuetModel.estimate_with_breakdown`."""
        model = self.model
        if not queries:
            return np.zeros(0, dtype=np.float64), EstimationBreakdown.from_marks(
                0.0, 0.0, 0.0, 0.0)
        start = time.perf_counter()
        values, ops, intervals = model.codec.translate_batch(queries)
        masks = intervals.dense_masks()
        translated = time.perf_counter()
        model.eval()
        with no_grad():
            encoded = model.encode_batch(values, ops)
            encoded_at = time.perf_counter()
            outputs = model.made(encoded)
            selectivity = model.selectivity_from_outputs(outputs, masks).numpy()
            inferred = time.perf_counter()
        estimates = np.clip(selectivity, 0.0, 1.0) * model.table.num_rows
        return estimates, EstimationBreakdown.from_marks(start, translated,
                                                         encoded_at, inferred)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.model.size_bytes()

    @property
    def is_deterministic(self) -> bool:
        return True
