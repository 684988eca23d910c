"""The Duet model: a predicate-conditioned masked autoregressive network.

The model maps an encoded *virtual tuple* (one predicate block per column,
see :mod:`repro.core.encoding`) to, for every column ``i``, a categorical
distribution over the column's distinct values conditioned on the predicates
of the preceding columns: ``P(C_i | P_<i)``.  A single forward pass therefore
provides everything Algorithm 3 needs to compute a selectivity — no
progressive sampling, no per-column inference loop.
"""

from __future__ import annotations

import copy

import numpy as np

from .. import nn
from ..data.table import Table
from ..nn import Tensor
from ..nn import functional as F
from .config import DuetConfig
from .encoding import QueryCodec
from .mpsn import MergedMLPInference, MLPMPSN, build_mpsn

__all__ = ["DuetModel"]


class DuetModel(nn.Module):
    """Predicate-conditioned MADE with optional embeddings and MPSNs."""

    def __init__(self, table: Table, config: DuetConfig | None = None) -> None:
        super().__init__()
        self.table = table
        self.config = config or DuetConfig()
        self.codec = QueryCodec(table, self.config)
        rng = np.random.default_rng(self.config.seed)

        # Per-column learned embeddings for very large domains.
        self._embedding_columns: dict[int, nn.Embedding] = {}
        for encoder in self.codec.encoders:
            if encoder.needs_embedding:
                embedding = nn.Embedding(encoder.num_distinct, self.config.embedding_dim,
                                         rng=rng)
                setattr(self, f"embedding{encoder.column_index}", embedding)
                self._embedding_columns[encoder.column_index] = embedding

        # Per-column MPSNs when several predicates per column are allowed.
        self._mpsns: list = []
        if self.config.multi_predicate:
            for encoder in self.codec.encoders:
                mpsn = build_mpsn(encoder.predicate_width, encoder.predicate_width,
                                  self.config.mpsn, rng=rng)
                setattr(self, f"mpsn{encoder.column_index}", mpsn)
                self._mpsns.append(mpsn)

        input_bins = [encoder.predicate_width for encoder in self.codec.encoders]
        output_bins = [column.num_distinct for column in table.columns]
        self.made = nn.MADE(input_bins=input_bins, output_bins=output_bins,
                            hidden_sizes=list(self.config.hidden_sizes),
                            residual=self.config.residual, seed=self.config.seed)

    # ------------------------------------------------------------------
    @property
    def input_width(self) -> int:
        return self.made.total_input

    @property
    def num_columns(self) -> int:
        return self.table.num_columns

    # ------------------------------------------------------------------
    def rebind(self, table: Table) -> "DuetModel":
        """Re-point the model at a new snapshot of the same (domain-wise) data.

        The data lifecycle's *re-encode* path: after an append that did not
        grow any column's domain, the model's architecture still matches and
        only the table reference (row count for selectivity scaling, codes
        for further training) needs to change.  Grown domains raise a typed
        :class:`~repro.data.DomainGrowthError` — the shapes no longer match
        and a cold train is required.  Returns ``self`` for chaining.
        """
        self.codec.rebind(table)
        self.table = table
        return self

    def clone(self, table: Table | None = None) -> "DuetModel":
        """A structurally identical model with copied parameter values.

        ``table`` must carry the same domains (checked, typed error
        otherwise); it defaults to this model's own table.  Serving uses
        clones to fine-tune *off to the side* while the original keeps
        answering requests, then swaps the tuned copy in atomically.

        The module tree is copied, not rebuilt, so no throwaway random
        initialisation runs.  What a twin never writes is shared: the
        config and the MADE masks.  The twin gets its own codec bound to
        ``table``, and no gradients.
        """
        target = table if table is not None else self.table
        self.codec.ensure_compatible(target)
        shared = [self.config, *(layer.mask for layer in
                                 (*self.made._layers, self.made.output_layer))]
        memo = {id(item): item for item in shared}
        memo[id(self.table)] = target
        memo[id(self.codec)] = QueryCodec(target, self.config)
        memo.update({id(parameter.grad): None for parameter in self.parameters()
                     if parameter.grad is not None})
        return copy.deepcopy(self, memo)

    # ------------------------------------------------------------------
    def encode_batch(self, values: np.ndarray, ops: np.ndarray) -> Tensor:
        """Encode code-space predicate arrays into the MADE input tensor.

        ``values`` and ``ops`` have shape ``(batch, num_columns, slots)`` with
        ``-1`` marking empty predicate slots (see :class:`QueryCodec`).
        """
        values = np.asarray(values, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        if values.ndim == 2:  # allow (batch, columns) for the single-slot case
            values = values[:, :, None]
            ops = ops[:, :, None]
        batch = values.shape[0]
        fast_path = not self._embedding_columns and not self.config.multi_predicate

        if fast_path:
            blocks = [
                encoder.encode(values[:, encoder.column_index, 0],
                               ops[:, encoder.column_index, 0])
                for encoder in self.codec.encoders
            ]
            return Tensor(np.concatenate(blocks, axis=-1))

        block_tensors: list[Tensor] = []
        for encoder in self.codec.encoders:
            column_index = encoder.column_index
            column_values = values[:, column_index, :]
            column_ops = ops[:, column_index, :]
            presence = (column_ops >= 0).astype(np.float64)
            op_features = Tensor(encoder.encode_operator_features(column_ops))
            if encoder.needs_embedding:
                embedding = self._embedding_columns[column_index]
                clipped = np.where(column_values >= 0, column_values, 0)
                looked_up = embedding(clipped.reshape(-1)).reshape(
                    batch, column_values.shape[1], self.config.embedding_dim)
                value_features = looked_up * Tensor(presence[..., None])
            else:
                value_features = Tensor(encoder.encode_value_features(column_values))
            per_predicate = Tensor.concat([op_features, value_features], axis=-1)
            if self.config.multi_predicate:
                block = self._mpsns[column_index](per_predicate, presence)
            else:
                block = per_predicate[:, 0, :]
            block_tensors.append(block)
        return Tensor.concat(block_tensors, axis=-1)

    # ------------------------------------------------------------------
    def forward(self, values: np.ndarray, ops: np.ndarray) -> Tensor:
        """Single forward pass: encoded predicates -> concatenated logits."""
        return self.made(self.encode_batch(values, ops))

    def column_logits(self, outputs: Tensor, column_index: int) -> Tensor:
        return self.made.column_logits(outputs, column_index)

    def column_distribution(self, outputs: Tensor, column_index: int) -> Tensor:
        """``P(C_i | P_<i)`` as a proper distribution (softmax over the block)."""
        return F.softmax(self.column_logits(outputs, column_index), axis=-1)

    # ------------------------------------------------------------------
    def selectivity_from_outputs(self, outputs: Tensor,
                                 masks: list[np.ndarray | None]) -> Tensor:
        """Algorithm 3, lines 3-4: zero-out and multiply the per-column masses.

        ``masks[i]`` is the ``(batch, NDV_i)`` valid-value mask of column
        ``i`` or ``None`` when the column is unconstrained across the batch
        (the :meth:`QueryCodec.zero_out_masks` sentinel) — its factor is
        exactly 1 and the column's softmax is never materialised.  The
        result is differentiable, which is what enables hybrid training.
        """
        selectivity: Tensor | None = None
        for column_index in range(self.num_columns):
            mask = masks[column_index]
            if mask is None:
                continue  # unconstrained column: factor is exactly 1
            distribution = self.column_distribution(outputs, column_index)
            mask = np.asarray(mask, dtype=np.float64)
            factor = (distribution * Tensor(mask)).sum(axis=-1)
            selectivity = factor if selectivity is None else selectivity * factor
        if selectivity is None:
            batch = outputs.shape[0]
            return Tensor(np.ones(batch))
        return selectivity

    # ------------------------------------------------------------------
    def merged_mpsn_inference(self, options: "nn.PlanOptions | None" = None
                              ) -> MergedMLPInference:
        """Build the block-diagonal merged-MLP accelerator (§IV-F).

        Only valid when the model uses MLP MPSNs on every column.  The
        accelerator is itself a lowered :class:`~repro.nn.ForwardPlan`;
        ``options`` selects its dtype (shared with the compiled fast path).
        """
        if not self.config.multi_predicate:
            raise RuntimeError("the model was built without MPSNs")
        if not all(isinstance(mpsn, MLPMPSN) for mpsn in self._mpsns):
            raise RuntimeError("merged acceleration requires the MLP MPSN variant")
        return MergedMLPInference(self._mpsns, options)
