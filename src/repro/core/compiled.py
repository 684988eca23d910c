"""Compiled Duet inference: the model lowered into grad-free NumPy plans.

:class:`CompiledDuetModel` snapshots a trained :class:`~repro.core.DuetModel`
into pure-array form:

* the MADE is lowered into one :class:`~repro.nn.ForwardPlan` (autoregressive
  masks folded into the weights, fused linear+ReLU stages, reusable ``out=``
  buffers; a large output stage reads each column block's live row prefix),
* MLP MPSNs are merged into the block-diagonal accelerator (§IV-F), which is
  itself a plan sharing the same dtype,
* a single-predicate model encodes by table gathers alone: operator
  features and each column's value features (an embedding column's
  snapshotted embedding matrix) are lookup tables, and
* Algorithm 3's zero-out runs through the fused
  :func:`~repro.nn.masked_block_mass` kernel — constrained columns get their
  masked probability mass straight from the logits, unconstrained columns
  are skipped entirely.

Weights, codec and row count are captured at compile time: training the
model afterwards does not change a plan — call
:meth:`repro.core.DuetEstimator.compile` again.  A plan therefore answers for
exactly one model version, which is what lets the serving layer hot-swap
models by replacing one plan object.

Plans reuse buffers across calls; :meth:`CompiledDuetModel.estimate_with_breakdown`
serialises the buffer-reusing stages on :attr:`CompiledDuetModel.lock` (the
serving layer funnels all forward passes through one micro-batcher thread
anyway, so the lock is uncontended there).
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

import numpy as np

from ..nn import ForwardPlan, PlanOptions, no_grad
from ..nn.inference import masked_block_mass
from ..nn.tensor import Tensor
from ..workload.query import Query
from .encoding import NUM_OPERATORS, OPERATOR_FEATURE_WIDTH
from .model import DuetModel
from .mpsn import MLPMPSN, MergedMLPInference, build_mpsn

__all__ = ["CompiledDuetModel", "EstimationBreakdown"]


class EstimationBreakdown(dict):
    """Per-phase wall-clock cost of a batch estimation (seconds).

    Keys: ``encoding`` (predicate translation + input encoding) and
    ``inference`` (network forward pass + zero-out + product).  Figure 6 of
    the paper plots exactly this breakdown.

    The encoding phase is additionally split into ``translate`` (query
    predicates into code-space arrays) and ``encode`` (code arrays into the
    MADE input matrix), with ``encoding == translate + encode`` — the
    request tracer renders these as separate spans.
    """

    @classmethod
    def from_marks(cls, start: float, translated: float, encoded: float,
                   inferred: float) -> "EstimationBreakdown":
        """Breakdown of one pass from its four ``perf_counter`` marks."""
        return cls(translate=translated - start, encode=encoded - translated,
                   encoding=encoded - start, inference=inferred - encoded)


class CompiledDuetModel:
    """A lowered, sampling-free, grad-free forward pass for one Duet model."""

    def __init__(self, model: DuetModel, options: PlanOptions | None = None) -> None:
        self.model = model
        self.options = options or PlanOptions()
        self.dtype = self.options.numpy_dtype
        self.codec = model.codec
        self.num_rows = model.table.num_rows
        self.num_columns = model.num_columns
        self.blocks = model.made.output_block_slices()
        self.made_plan: ForwardPlan = ForwardPlan(model.made.export_stage_specs(),
                                                  self.options)
        # Embedding tables as plain gather arrays (weights snapshotted).
        embeddings = {
            column_index: embedding.weight.data.astype(self.dtype, copy=True)
            for column_index, embedding in model._embedding_columns.items()
        }
        # Single-predicate models encode by table gathers alone (embedding
        # columns included).  MPSNs: the MLP variant merges into one
        # block-diagonal plan; the RNN/recursive variants have data-dependent
        # recurrences that do not lower to dense stages, so they fall back to
        # tape modules under ``no_grad`` (still batched, just not
        # buffer-fused).  The fallback modules are *clones* so the
        # weight-snapshot contract holds for every variant.
        self._merged_mpsn: MergedMLPInference | None = None
        self._fallback_mpsns = None
        self._fast_encode = not model.config.multi_predicate
        if self._fast_encode:
            self._build_encode_tables(embeddings)
        else:
            self._embeddings = embeddings
            if all(isinstance(mpsn, MLPMPSN) for mpsn in model._mpsns):
                self._merged_mpsn = MergedMLPInference(model._mpsns, self.options)
            else:
                self._fallback_mpsns = []
                for encoder, mpsn in zip(self.codec.encoders, model._mpsns):
                    clone = build_mpsn(encoder.predicate_width,
                                       encoder.predicate_width, model.config.mpsn)
                    clone.load_state_dict(mpsn.state_dict())
                    clone.eval()
                    self._fallback_mpsns.append(clone)
        # Phase profiling (opt-in): cumulative seconds/calls of the encode
        # gather, the lowered MADE forward, and the fused zero-out mask.
        self._profile = False
        self.phase_seconds = {"encode": 0.0, "forward": 0.0, "mask": 0.0}
        self.phase_calls = {"encode": 0, "forward": 0, "mask": 0}
        self.lock = threading.Lock()

    def _build_encode_tables(self, embeddings: dict[int, np.ndarray]) -> None:
        """Precompute gather tables for the single-predicate encode path.

        Operator features become one ``(NUM_OPERATORS + 1, width)`` lookup
        (row 0 = wildcard, all zeros) and each column's value encoding
        becomes a ``(NDV + 1, width)`` lookup whose last row is the wildcard
        zeros, so encoding a batch is one table gather per feature group
        instead of re-deriving presence bits and binary digits every call.
        An embedding column's table is its snapshotted embedding matrix.
        """
        # Tables and buffer live in the plan dtype: the gathered encoding
        # feeds the plan input directly, with no second full-batch cast
        # (one-hot bits and presence flags are exact in float32).
        self._op_table = np.zeros((NUM_OPERATORS + 1, OPERATOR_FEATURE_WIDTH),
                                  dtype=self.dtype)
        self._op_table[1:, 0] = 1.0
        self._op_table[1:, 1:] = np.eye(NUM_OPERATORS)
        self._value_tables: list[np.ndarray] = []
        op_destinations: list[np.ndarray] = []
        self._value_slices: list[tuple[int, int]] = []
        offset = 0
        for encoder in self.codec.encoders:
            op_destinations.append(np.arange(offset, offset + OPERATOR_FEATURE_WIDTH))
            value_start = offset + OPERATOR_FEATURE_WIDTH
            self._value_slices.append((value_start, value_start + encoder.value_width))
            table = embeddings.get(encoder.column_index)
            if table is None:
                table = encoder.encode_value_features(np.arange(encoder.num_distinct))
            self._value_tables.append(np.vstack(
                [table, np.zeros((1, encoder.value_width))]).astype(self.dtype))
            offset += encoder.predicate_width
        self._op_destinations = np.concatenate(op_destinations)
        self._encode_buffer = np.empty((0, offset), dtype=self.dtype)

    # ------------------------------------------------------------------
    @property
    def buffer_bytes(self) -> int:
        """Footprint of the reusable plan buffers (monitoring aid)."""
        total = self.made_plan.buffer_bytes
        if self._merged_mpsn is not None:
            total += self._merged_mpsn.plan.buffer_bytes
        return total

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiling(self) -> bool:
        return self._profile

    def enable_profiling(self, enabled: bool = True) -> None:
        """Toggle phase timing here and per-stage timing on the plans."""
        self._profile = enabled
        self.made_plan.enable_profiling(enabled)
        if self._merged_mpsn is not None:
            self._merged_mpsn.plan.enable_profiling(enabled)

    def reset_profile(self) -> None:
        self.phase_seconds = {"encode": 0.0, "forward": 0.0, "mask": 0.0}
        self.phase_calls = {"encode": 0, "forward": 0, "mask": 0}
        self.made_plan.reset_profile()
        if self._merged_mpsn is not None:
            self._merged_mpsn.plan.reset_profile()

    def profile_report(self) -> dict:
        """Phase totals plus the MADE plan's per-stage attribution."""
        report = {
            "phases": {name: {"calls": self.phase_calls[name],
                              "seconds": self.phase_seconds[name]}
                       for name in self.phase_seconds},
            "made_stages": self.made_plan.profile_report(),
        }
        if self._merged_mpsn is not None:
            report["mpsn_stages"] = self._merged_mpsn.plan.profile_report()
        return report

    # ------------------------------------------------------------------
    # Encoding (mirror of DuetModel.encode_batch, arrays only)
    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Encode code-space predicate arrays into the MADE input matrix.

        Caller must hold :attr:`lock` (the merged-MPSN stage reuses plan
        buffers).  Accepts the same ``(batch, columns[, slots])`` arrays as
        :meth:`DuetModel.encode_batch`.
        """
        if not self._profile:
            return self._encode(values, ops)
        started = time.perf_counter()
        try:
            return self._encode(values, ops)
        finally:
            self.phase_seconds["encode"] += time.perf_counter() - started
            self.phase_calls["encode"] += 1

    def _encode(self, values: np.ndarray, ops: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        if values.ndim == 2:
            values = values[:, :, None]
            ops = ops[:, :, None]
        batch = values.shape[0]
        config = self.model.config

        if self._fast_encode:
            if self._encode_buffer.shape[0] < batch:
                self._encode_buffer = np.empty((batch, self._encode_buffer.shape[1]),
                                               dtype=self.dtype)
            buffer = self._encode_buffer[:batch]
            first_ops = ops[:, :, 0]
            first_values = values[:, :, 0]
            operator_features = self._op_table[first_ops + 1]
            buffer[:, self._op_destinations] = operator_features.reshape(batch, -1)
            for column_index, (table, (start, stop)) in enumerate(
                    zip(self._value_tables, self._value_slices)):
                codes = first_values[:, column_index]
                wildcard_row = table.shape[0] - 1
                buffer[:, start:stop] = table[
                    np.where(codes >= 0, codes, wildcard_row)]
            return buffer

        per_column: list[np.ndarray] = []
        presences: list[np.ndarray] = []
        for encoder in self.codec.encoders:
            column_index = encoder.column_index
            column_values = values[:, column_index, :]
            column_ops = ops[:, column_index, :]
            presence = (column_ops >= 0).astype(np.float64)
            op_features = encoder.encode_operator_features(column_ops)
            if column_index in self._embeddings:
                table = self._embeddings[column_index]
                clipped = np.where(column_values >= 0, column_values, 0)
                looked_up = table[clipped.reshape(-1)].reshape(
                    batch, column_values.shape[1], config.embedding_dim)
                value_features = looked_up * presence[..., None]
            else:
                value_features = encoder.encode_value_features(column_values)
            per_column.append(np.concatenate([op_features, value_features], axis=-1))
            presences.append(presence)

        if self._merged_mpsn is not None:
            embedded = self._merged_mpsn.forward(per_column, presences)
            return np.concatenate(embedded, axis=-1)
        with no_grad():
            embedded = [
                mpsn(Tensor(encoding), presence).numpy()
                for mpsn, encoding, presence in zip(self._fallback_mpsns,
                                                    per_column, presences)
            ]
        return np.concatenate(embedded, axis=-1)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def logits(self, encoded: np.ndarray) -> np.ndarray:
        """Run the lowered MADE; returns a buffer view (caller holds lock)."""
        if not self._profile:
            return self.made_plan.run(encoded)
        started = time.perf_counter()
        try:
            return self.made_plan.run(encoded)
        finally:
            self.phase_seconds["forward"] += time.perf_counter() - started
            self.phase_calls["forward"] += 1

    def selectivity_from_logits(self, logits: np.ndarray,
                                masks: list[np.ndarray | None]) -> np.ndarray:
        """Fused zero-out product; returns a fresh ``(batch,)`` float64 array."""
        if not self._profile:
            mass = masked_block_mass(logits, self.blocks, masks)
            return np.asarray(mass, dtype=np.float64)
        started = time.perf_counter()
        try:
            mass = masked_block_mass(logits, self.blocks, masks)
            return np.asarray(mass, dtype=np.float64)
        finally:
            self.phase_seconds["mask"] += time.perf_counter() - started
            self.phase_calls["mask"] += 1

    def estimate_with_breakdown(self, queries: Sequence[Query]
                                ) -> tuple[np.ndarray, EstimationBreakdown]:
        """The one compiled pass: translate, encode, MADE, zero-out, × rows.

        Uses only the plan's own codec and row count, so its answers never
        mix model versions.  Thread-safe: translation runs outside
        :attr:`lock`, the buffer-reusing stages under it.
        """
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64), EstimationBreakdown.from_marks(
                0.0, 0.0, 0.0, 0.0)
        start = time.perf_counter()
        values, ops, masks = self.codec.translate_batch(queries)
        translated = time.perf_counter()
        with self.lock:
            encoded = self.encode(values, ops)
            encoded_at = time.perf_counter()
            selectivity = self.selectivity_from_logits(self.logits(encoded), masks)
            inferred = time.perf_counter()
        estimates = np.clip(selectivity, 0.0, 1.0) * self.num_rows
        return estimates, EstimationBreakdown.from_marks(start, translated,
                                                         encoded_at, inferred)
