"""Lowered Duet training step: Algorithm 2's loss and gradients in bare NumPy.

The autograd :class:`~repro.nn.Tensor` tape records every slice, softmax and
sum of a training step and then replays it backwards, allocating a fresh
gradient array per node (a full ``zeros_like(outputs)`` per column block for
the logit slices alone).  For a :class:`~repro.core.DuetModel` without MPSNs
the network is a fixed stack of masked dense layers, so the whole step
lowers to a handful of GEMMs with a hand-written backward:

* **forward** — the data, query and negative-replay batches are encoded into
  one input matrix and run through the MADE together (rows are independent,
  so stacking them only makes the GEMMs larger).  Masks are applied as
  ``W ⊙ mask``, except on an output layer large enough for row prefixes
  (:meth:`MADE.output_row_limits`): MADE lists its hidden units in degree
  order, so column block ``c`` reads exactly the hidden rows ``[0, k_c)``
  and gets one GEMM over that prefix, with no mask.  Every activation
  lands in a grow-only buffer reused across steps;
* **loss** — per-column cross-entropy and, for the hybrid query loss, the
  zero-out product of Algorithm 3 are computed column block by column block
  in place on the logits, which then hold ``dL/dlogits``.  (``reduceat``
  segments, as in ``interval_block_mass``, would need a rows × outputs
  scratch to spread each block's maximum and sum back over its width:
  ~90 MB per DMV step);
* **backward** — masked dense + ReLU + residual: ``dW = (Xᵀ·dY) ⊙ mask``,
  ``db = ΣdY``, ``dX = dY·(W ⊙ mask)ᵀ``; the MADE input gradient is only
  formed for the embedding value slices and scattered into their tables.
  Under row prefixes the output layer's runs as a staircase: hidden rows
  ``[k_{c-1}, k_c)`` get one dX and one dW GEMM over the output columns
  from block ``c`` on, written straight into buffer slices.

Each masked layer's gradient buffer doubles as its masked-weight buffer:
the forward writes ``W ⊙ mask`` into it and the backward consumes that for
the input gradient before overwriting it with ``dW``.  Under row prefixes
the output layer's is zeroed once; its masked-out region is never
written.  The step then sets
``parameter.grad`` on every parameter, so ``clip_grad_norm`` and the
in-place :class:`~repro.nn.Adam` run unchanged and a warmed-up step
allocates nothing proportional to the parameter count.

The tape stays the oracle: for every loss term the per-parameter float64
gradients equal those of :meth:`DuetTrainer._data_loss` /
``_negative_loss`` / ``_query_loss`` + ``backward()`` to ~1e-15 relative
(``tests/test_train_step.py`` bounds it at 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import OPERATOR_FEATURE_WIDTH
from .model import DuetModel
from .virtual_table import VirtualTupleBatch

__all__ = ["CompiledTrainStep", "StepLosses"]

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class StepLosses:
    """Loss values of one step, as the tape would report them."""

    data_loss: float
    query_loss: float | None = None
    raw_qerror: float | None = None


class CompiledTrainStep:
    """Forward, loss and backward of one Duet training step without the tape.

    Covers every :class:`DuetModel` built without MPSNs (plain MADE or
    ResMADE; binary, one-hot or embedding value features).  :meth:`run`
    writes the gradient of ``L_data + w·relu(margin − CE_neg) + λ·L_query``
    into each parameter's ``.grad``; the caller clips and steps.
    """

    def __init__(self, model: DuetModel) -> None:
        if model.config.multi_predicate:
            raise ValueError("the lowered step covers models without MPSNs")
        made = model.made
        self._hidden = list(made._layers)
        self._output = made.output_layer
        #: per layer: whether it adds its input (ResMADE); never the output
        self._skip = [*made.skips, False]
        self._input_width = made.total_input
        self._out_slices = [(block.output_start, block.output_end)
                            for block in made.blocks]
        self._out_starts = np.array([start for start, _ in self._out_slices])
        #: per column: (encoder, input block start, embedding module or None)
        self._columns = [
            (encoder, made.blocks[encoder.column_index].input_start,
             model._embedding_columns.get(encoder.column_index))
            for encoder in model.codec.encoders
        ]
        self._layers = [*self._hidden, self._output]
        #: per output block: (live hidden rows k, start, end); the rows
        #: [0, k) are a prefix because MADE lists its units in degree order.
        #: Where MADE finds one dense product cheaper, one block over
        #: W ⊙ mask, formed in the gradient buffer as for a hidden layer.
        limits = made.output_row_limits()
        self._output_mask = None if limits is not None else self._output.mask
        self._output_blocks = (
            [(self._output.in_features, 0, made.total_output)] if limits is None
            else [(rows, start, end) for rows, (start, end)
                  in zip(limits, self._out_slices)])
        #: the backward's staircase: hidden rows [low, high) feed the output
        #: columns [start, total) -- every block from the first that reads them
        steps = [0, *(rows for rows, _, _ in self._output_blocks)]
        self._staircase = [(low, high, start) for low, high, (_, start, _)
                           in zip(steps[:-1], steps[1:], self._output_blocks)
                           if high > low]
        self._dead_rows = steps[-1]  # rows no block reads: zero gradient
        #: per layer: weight-gradient buffer, which for a masked dense layer
        #: also holds W ⊙ mask between the forward and the backward; under
        #: row prefixes the output layer's is zeroed once, its masked-out
        #: region never written
        self._weight_buffers = [np.empty_like(layer.weight.data)
                                for layer in self._hidden]
        self._weight_buffers.append(np.zeros_like(self._output.weight.data))
        self._bias_grads = [np.empty_like(layer.bias.data) for layer in self._layers]
        self._embedding_grads = {
            column: np.empty_like(embedding.weight.data)
            for column, embedding in model._embedding_columns.items()}
        self._storage: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _buffer(self, name: str, rows: int, width: int) -> np.ndarray:
        """A ``(rows, width)`` view of a grow-only buffer reused across steps."""
        storage = self._storage.get(name)
        if storage is None or storage.shape[0] < rows:
            storage = np.empty((rows, width))
            self._storage[name] = storage
        return storage[:rows]

    def _encode(self, values: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """The MADE input of ``encode_batch``'s single-slot path, into a buffer.

        The column blocks tile the input, so every entry is written.
        """
        inputs = self._buffer("input", values.shape[0], self._input_width)
        for encoder, start, embedding in self._columns:
            column = encoder.column_index
            end = start + encoder.predicate_width
            if embedding is None:
                inputs[:, start:end] = encoder.encode(values[:, column], ops[:, column])
                continue
            value_start = start + OPERATOR_FEATURE_WIDTH
            inputs[:, start:value_start] = encoder.encode_operator_features(ops[:, column])
            codes = values[:, column]
            looked_up = embedding.weight.data[np.where(codes >= 0, codes, 0)]
            looked_up *= (ops[:, column] >= 0)[:, None]
            inputs[:, value_start:end] = looked_up
        return inputs

    # ------------------------------------------------------------------
    def run(self, data: VirtualTupleBatch,
            negative: VirtualTupleBatch | None = None,
            query: tuple | None = None, *,
            negative_margin: float = 0.0, negative_weight: float = 0.0,
            lambda_query: float = 0.0, num_rows: int = 1) -> StepLosses:
        """One step's losses; the gradient lands in every ``parameter.grad``.

        ``data`` and ``negative`` are virtual-table samples (the negative
        replay enters as the hinge ``negative_weight · relu(negative_margin −
        CE)``); ``query`` is ``(values, ops, masks, cardinalities)`` as
        :meth:`DuetTrainer._query_batch` returns it, weighted by
        ``lambda_query`` with estimates scaled by ``num_rows``.
        """
        # Row layout data | query | negative, so an inactive hinge leaves
        # the negative rows out of the backward.
        parts = [(data.values, data.ops)]
        if query is not None:
            parts.append(query[:2])
        if negative is not None:
            parts.append((negative.values, negative.ops))
        values = np.concatenate([part[0][:, :, 0] for part in parts])
        ops = np.concatenate([part[1][:, :, 0] for part in parts])
        rows = values.shape[0]
        data_rows = data.values.shape[0]
        labelled_rows = data_rows + (query[0].shape[0] if query is not None else 0)

        # -- forward ---------------------------------------------------
        activations = [self._encode(values, ops)]  # input of each layer
        rectified = []                              # ReLU output per hidden layer
        for index, layer in enumerate(self._hidden):
            masked = self._weight_buffers[index]
            np.multiply(layer.weight.data, layer.mask, out=masked)
            out = self._buffer(f"relu{index}", rows, masked.shape[1])
            np.matmul(activations[-1], masked, out=out)
            out += layer.bias.data
            np.maximum(out, 0.0, out=out)
            rectified.append(out)
            if self._skip[index]:
                summed = self._buffer(f"sum{index}", rows, out.shape[1])
                np.add(out, activations[-1], out=summed)
                out = summed
            activations.append(out)
        logits = self._buffer("logits", rows, self._output.out_features)
        weight = self._output.weight.data
        if self._output_mask is not None:
            weight = np.multiply(weight, self._output_mask, out=self._weight_buffers[-1])
        for live, start, end in self._output_blocks:
            if live:
                np.matmul(out[:, :live], weight[:live, start:end],
                          out=logits[:, start:end])
            else:
                logits[:, start:end] = 0.0
        logits += self._output.bias.data

        # -- loss: the logits become dL/dlogits in place -------------------
        ce_rows = np.r_[0:data_rows, labelled_rows:rows]
        labels = (data.labels if negative is None
                  else np.concatenate([data.labels, negative.labels]))
        label_columns = labels + self._out_starts
        label_logits = logits[ce_rows[:, None], label_columns]
        cross_entropy = np.empty(label_logits.shape)
        for column, (start, end) in enumerate(self._out_slices):
            block = logits[:, start:end]
            maxima = block.max(axis=1)
            block -= maxima[:, None]
            np.exp(block, out=block)
            totals = block.sum(axis=1)
            block /= totals[:, None]
            cross_entropy[:, column] = (np.log(totals[ce_rows]) + maxima[ce_rows]
                                        - label_logits[:, column])
        # softmax − one-hot is d(CE)/dlogits; each loss term scales its rows
        logits[ce_rows[:, None], label_columns] -= 1.0
        data_loss = float(cross_entropy[:data_rows].mean(axis=0).sum())
        logits[:data_rows] *= 1.0 / data_rows
        backward_rows = labelled_rows
        if negative is not None:
            hinge = negative_margin - float(
                cross_entropy[data_rows:].mean(axis=0).sum())
            if hinge > 0.0:
                logits[labelled_rows:] *= -negative_weight / (rows - labelled_rows)
                backward_rows = rows
        query_loss = raw_qerror = None
        if query is not None:
            query_loss, raw_qerror = self._query_gradient(
                logits[data_rows:labelled_rows], query[2], query[3],
                lambda_query, num_rows)

        # -- backward ----------------------------------------------------
        self._backward(logits[:backward_rows],
                       [array[:backward_rows] for array in activations],
                       [array[:backward_rows] for array in rectified],
                       values[:backward_rows], ops[:backward_rows])
        for layer, weight_grad, bias_grad in zip(self._layers, self._weight_buffers,
                                                 self._bias_grads):
            layer.weight.grad = weight_grad
            layer.bias.grad = bias_grad
        return StepLosses(data_loss, query_loss, raw_qerror)

    # ------------------------------------------------------------------
    def _query_gradient(self, probabilities: np.ndarray, masks: list,
                        cardinalities: np.ndarray, lambda_query: float,
                        num_rows: int) -> tuple[float, float]:
        """Mapped Q-Error loss and raw Q-Error of the query rows.

        Mirrors ``selectivity_from_outputs`` → ``F.qerror`` →
        ``F.mapped_qerror_loss(...).mean()``.  The selectivity is the
        product of the constrained columns' masked masses ``s_c = Σ p·mask``;
        each mass's logit gradient is ``p·(mask − s_c)`` times the product
        of the other factors, written over the softmax ``probabilities`` in
        place (unconstrained blocks get zero).
        """
        count = probabilities.shape[0]
        constrained = [(column, np.asarray(mask, dtype=np.float64))
                       for column, mask in enumerate(masks) if mask is not None]
        masses = np.empty((count, len(constrained)))
        for slot, (column, mask) in enumerate(constrained):
            start, end = self._out_slices[column]
            masses[:, slot] = np.einsum("ij,ij->i", probabilities[:, start:end], mask)
        estimate = masses.prod(axis=1) * float(num_rows)
        passes = estimate >= 1.0  # clip(minimum=1) passes its gradient
        estimate = np.maximum(estimate, 1.0)
        actual = np.maximum(np.asarray(cardinalities, dtype=np.float64), 1.0)
        over = estimate / actual >= actual / estimate
        qerror = np.where(over, estimate / actual, actual / estimate)
        # d(λ · mean(log2(qerror + 1))) / d(selectivity)
        d_qerror = np.where(over, 1.0 / actual, -actual / estimate ** 2)
        d_selectivity = (lambda_query / count / ((qerror + 1.0) * _LN2)
                         * d_qerror * passes * float(num_rows))
        # Products of the factors before / after each one: no division by
        # a zero mass.
        before = np.ones((count, len(constrained) + 1))
        np.cumprod(masses, axis=1, out=before[:, 1:])
        after = np.ones((count, len(constrained) + 1))
        np.cumprod(masses[:, ::-1], axis=1, out=after[:, 1:])
        for slot, (column, mask) in enumerate(constrained):
            start, end = self._out_slices[column]
            block = probabilities[:, start:end]
            block *= mask - masses[:, slot, None]
            block *= (d_selectivity * before[:, slot]
                      * after[:, len(constrained) - 1 - slot])[:, None]
        constrained_columns = {column for column, _ in constrained}
        for column, (start, end) in enumerate(self._out_slices):
            if column not in constrained_columns:
                probabilities[:, start:end] = 0.0
        return (float((np.log(qerror + 1.0) / _LN2).mean()),
                float(qerror.mean()))

    def _output_backward(self, d_logits: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """The output layer's backward as a staircase over its live rows.

        Hidden rows ``[low, high)`` get one dX and one dW GEMM over the
        output columns ``[start, total)`` that read them, written straight
        into slices of the buffers; the masked-out rest of dW stays zero.
        Returns dL/d(hidden).
        """
        weight_grad = self._weight_buffers[-1]
        # Dense: the buffer holds W ⊙ mask, read by dX before dW lands in
        # the staircase's one step.
        weight = self._output.weight.data if self._output_mask is None else weight_grad
        d_hidden = self._buffer(f"grad{len(self._hidden) - 1}",
                                d_logits.shape[0], weight.shape[0])
        for low, high, start in self._staircase:
            np.matmul(d_logits[:, start:], weight[low:high, start:].T,
                      out=d_hidden[:, low:high])
            np.matmul(hidden[:, low:high].T, d_logits[:, start:],
                      out=weight_grad[low:high, start:])
        d_hidden[:, self._dead_rows:] = 0.0
        if self._output_mask is not None:
            weight_grad *= self._output_mask
        np.sum(d_logits, axis=0, out=self._bias_grads[-1])
        return d_hidden

    def _backward(self, d_logits: np.ndarray, activations: list,
                  rectified: list, values: np.ndarray, ops: np.ndarray) -> None:
        """Masked dense + ReLU + residual backward into the gradient buffers."""
        rows = d_logits.shape[0]
        # gradient w.r.t. the current layer's output
        d_out = self._output_backward(d_logits, activations[-1])
        for index in reversed(range(len(self._hidden))):
            active = rectified[index] > 0.0
            if self._skip[index]:  # d_out also flows down the skip
                d_pre = self._buffer(f"pre{index}", rows, d_out.shape[1])
                np.multiply(d_out, active, out=d_pre)
            else:
                d_pre = d_out
                d_pre *= active
            masked = self._weight_buffers[index]
            # dX before dW: the buffer still holds W ⊙ mask until dW lands.
            if index > 0:
                d_below = self._buffer(f"grad{index - 1}", rows, masked.shape[0])
                np.matmul(d_pre, masked.T, out=d_below)
                if self._skip[index]:
                    d_below += d_out
            else:
                self._embedding_backward(d_pre, masked, values, ops)
            np.matmul(activations[index].T, d_pre, out=masked)
            masked *= self._hidden[index].mask
            np.sum(d_pre, axis=0, out=self._bias_grads[index])
            if index > 0:
                d_out = d_below

    def _embedding_backward(self, d_pre: np.ndarray, masked: np.ndarray,
                            values: np.ndarray, ops: np.ndarray) -> None:
        """Scatter the MADE input gradient of each embedding value slice."""
        for encoder, start, embedding in self._columns:
            if embedding is None:
                continue
            column = encoder.column_index
            value_start = start + OPERATOR_FEATURE_WIDTH
            d_features = d_pre @ masked[value_start:start + encoder.predicate_width].T
            present = ops[:, column] >= 0
            grad = self._embedding_grads[column]
            grad.fill(0.0)
            np.add.at(grad, values[present, column], d_features[present])
            embedding.weight.grad = grad
