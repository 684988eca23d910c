"""Masked autoregressive networks (MADE and ResMADE).

Both Duet and the Naru / UAE baselines are built on MADE [Germain et al.,
2015]: a feed-forward network whose weight masks enforce that the output
block for column ``i`` only depends on the input blocks of columns ``< i``.

The network is *column-blocked*: each column ``i`` owns a contiguous slice of
the input vector (its encoded value for Naru, its encoded predicate for Duet)
and a contiguous slice of the output vector (logits over the column's
distinct values).  ``ColumnBlockSpec`` records those slices so that callers
can encode inputs and decode outputs without duplicating offset arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import MaskedLinear, Module
from .tensor import Tensor

__all__ = ["ColumnBlockSpec", "MADE"]

#: masked-out output weights a column block must skip, on average, before
#: one GEMM per block beats one dense masked GEMM.  Measured on 2 vCPUs
#: (float64): a served pass at batch 2 breaks even near 5k; a training
#: step between 5k and over 19k, later the more rows it stacks (640 to
#: 2,600 were tried), because the backward's per-block GEMMs are thin.
#: 2^16 keeps a margin on both.  DMV's 1024x5435 output layer skips ~186k
#: per block; census's 128x610 skips ~2.3k, where per-block calls made a
#: training step ~18% slower and the served output stage ~3x slower.
MIN_SKIPPED_PER_BLOCK = 2 ** 16


@dataclass(frozen=True)
class ColumnBlockSpec:
    """Input/output slice owned by one column in a column-blocked MADE."""

    column_index: int
    input_start: int
    input_end: int
    output_start: int
    output_end: int

    @property
    def input_width(self) -> int:
        return self.input_end - self.input_start

    @property
    def output_width(self) -> int:
        return self.output_end - self.output_start


class MADE(Module):
    """Column-blocked Masked Autoencoder for Distribution Estimation.

    Parameters
    ----------
    input_bins:
        Encoded input width of each column (predicate encoding width for
        Duet, value encoding width for Naru).
    output_bins:
        Number of distinct values of each column; the output block for
        column ``i`` holds that many logits.
    hidden_sizes:
        Sizes of the hidden layers, e.g. ``[512, 256, 512, 128, 1024]`` for
        the paper's DMV configuration.
    residual:
        When True, add identity skip connections between consecutive hidden
        layers of equal width (the "ResMADE" variant used for Kddcup98 and
        Census in the paper).
    """

    def __init__(
        self,
        input_bins: list[int],
        output_bins: list[int],
        hidden_sizes: list[int],
        residual: bool = False,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if len(input_bins) != len(output_bins):
            raise ValueError("input_bins and output_bins must describe the same columns")
        if not input_bins:
            raise ValueError("at least one column is required")
        if any(width <= 0 for width in input_bins + output_bins):
            raise ValueError("all block widths must be positive")

        self.input_bins = list(input_bins)
        self.output_bins = list(output_bins)
        self.hidden_sizes = list(hidden_sizes)
        self.residual = residual
        self.num_columns = len(input_bins)

        rng = np.random.default_rng(seed)

        self.blocks = self._build_block_specs()
        self.total_input = sum(input_bins)
        self.total_output = sum(output_bins)

        input_degrees = np.concatenate(
            [np.full(width, index) for index, width in enumerate(input_bins)])
        output_degrees = np.concatenate(
            [np.full(width, index) for index, width in enumerate(output_bins)])

        # Hidden-unit degrees cycle over 0..N-2 so that every conditional
        # P(C_i | . < i) for i >= 1 has hidden capacity.  With a single
        # column there is nothing to condition on and all masks to the
        # output are zero (the output is learned through the bias alone).
        # Each layer lists its units in degree order (see
        # ``order_units_by_degree``), so the output block of column c reads
        # a row prefix of the output weight: ``output_row_limits``.
        max_degree = max(self.num_columns - 1, 1)
        hidden_degrees = [np.sort(np.arange(size) % max_degree) for size in hidden_sizes]

        self._layers: list[MaskedLinear] = []
        previous_degrees = input_degrees
        previous_size = self.total_input
        for layer_index, size in enumerate(hidden_sizes):
            layer = MaskedLinear(previous_size, size, rng=rng)
            degrees = hidden_degrees[layer_index]
            mask = (degrees[None, :] >= previous_degrees[:, None]).astype(np.float64)
            layer.set_mask(mask)
            setattr(self, f"hidden{layer_index}", layer)
            self._layers.append(layer)
            previous_degrees = degrees
            previous_size = size

        self.output_layer = MaskedLinear(previous_size, self.total_output, rng=rng)
        output_mask = (output_degrees[None, :] > previous_degrees[:, None]).astype(np.float64)
        self.output_layer.set_mask(output_mask)
        self._row_limits = np.searchsorted(previous_degrees, np.arange(self.num_columns),
                                           side="left").tolist()
        self.order_units_by_degree()

        self._hidden_degrees = hidden_degrees
        #: per hidden layer: whether it adds the previous hidden layer's
        #: output (ResMADE skip; needs equal width and equal degrees)
        self.skips = [
            residual and index > 0
            and hidden_sizes[index - 1] == hidden_sizes[index]
            and np.array_equal(hidden_degrees[index - 1], hidden_degrees[index])
            for index in range(len(hidden_sizes))
        ]

    # ------------------------------------------------------------------
    def _build_block_specs(self) -> list[ColumnBlockSpec]:
        blocks: list[ColumnBlockSpec] = []
        input_offset = 0
        output_offset = 0
        for index, (in_width, out_width) in enumerate(zip(self.input_bins, self.output_bins)):
            blocks.append(ColumnBlockSpec(
                column_index=index,
                input_start=input_offset,
                input_end=input_offset + in_width,
                output_start=output_offset,
                output_end=output_offset + out_width,
            ))
            input_offset += in_width
            output_offset += out_width
        return blocks

    # ------------------------------------------------------------------
    def forward(self, inputs: Tensor) -> Tensor:
        """Map a batch of encoded inputs to concatenated per-column logits."""
        if inputs.shape[-1] != self.total_input:
            raise ValueError(f"expected input width {self.total_input}, "
                             f"got {inputs.shape[-1]}")
        hidden = inputs
        for layer, skip in zip(self._layers, self.skips):
            activated = layer(hidden).relu()
            hidden = activated + hidden if skip else activated
        return self.output_layer(hidden)

    # ------------------------------------------------------------------
    def export_stage_specs(self) -> list:
        """Lower the network into compiled stage specs (masks folded once).

        The spec list mirrors :meth:`forward` exactly: every hidden layer
        becomes a fused linear+ReLU stage whose weight already carries the
        autoregressive mask, ResMADE skip connections become ``residual_from``
        links, and the output layer is the final linear stage.  That stage
        carries :meth:`output_row_limits`, when there are any, as
        ``(rows, start, end)`` blocks, so the plan multiplies only each
        output block's live row prefix.
        """
        from .inference import StageSpec

        specs: list[StageSpec] = []
        for layer_index, layer in enumerate(self._layers):
            weight, bias = layer.export_weights()
            specs.append(StageSpec(weight, bias, activation="relu",
                                   residual_from=layer_index - 1
                                   if self.skips[layer_index] else None))
        weight, bias = self.output_layer.export_weights()
        limits = self.output_row_limits()
        specs.append(StageSpec(weight, bias, row_limits=None if limits is None else [
            (rows, start, end) for rows, (start, end)
            in zip(limits, self.output_block_slices())]))
        return specs

    def output_row_limits(self) -> list[int] | None:
        """Per column ``c``: the output block reads hidden rows ``[0, k_c)``.

        ``k_c`` counts the last hidden layer's units of degree below ``c``
        (the input units of columns ``< c`` without hidden layers).  Units
        are listed in degree order, so the block's mask is exactly that row
        prefix: every row past it is masked out.

        ``None`` when one dense masked product is cheaper: the compiled plan
        and the lowered step then run one GEMM instead of one per block.
        Skipping pays only when each block's call skips enough weights
        (:data:`MIN_SKIPPED_PER_BLOCK` on average) to cover a GEMM call of
        its own.
        """
        rows = self.output_layer.in_features
        skipped = sum((rows - live) * block.output_width
                      for live, block in zip(self._row_limits, self.blocks))
        if skipped < MIN_SKIPPED_PER_BLOCK * self.num_columns:
            return None
        return list(self._row_limits)

    def order_units_by_degree(self) -> None:
        """Relabel parameters laid out in draw order into degree order.

        Unit ``j`` of a hidden layer is drawn with degree ``j mod (N - 1)``.
        A stable argsort of those degrees moves the layer's weight columns
        and bias, and the next layer's weight rows, so the network computes
        the same function with its units listed in degree order.  Runs once
        on the freshly drawn layers; the registry also runs it on parameters
        saved before units were ordered.  Skip-linked ResMADE layers have
        equal degrees, hence one shared permutation.
        """
        max_degree = max(self.num_columns - 1, 1)
        layers = [*self._layers, self.output_layer]
        for index, size in enumerate(self.hidden_sizes):
            order = np.argsort(np.arange(size) % max_degree, kind="stable")
            layer, above = layers[index], layers[index + 1]
            layer.weight.data = layer.weight.data[:, order]
            layer.bias.data = layer.bias.data[order]
            above.weight.data = above.weight.data[order]

    def output_block_slices(self) -> list[tuple[int, int]]:
        """Per-column ``(start, end)`` logit slices, for the fused zero-out."""
        return [(block.output_start, block.output_end) for block in self.blocks]

    # ------------------------------------------------------------------
    def column_logits(self, outputs: Tensor, column_index: int) -> Tensor:
        """Slice the logits block of ``column_index`` out of the full output."""
        block = self.blocks[column_index]
        return outputs[..., block.output_start:block.output_end]

    def autoregressive_mask_matrix(self) -> np.ndarray:
        """Return the end-to-end connectivity matrix (inputs x outputs).

        Entry ``(i, o)`` is nonzero when input unit ``i`` can influence output
        unit ``o``.  Tests use this to verify the autoregressive property:
        the output block of column ``c`` must have zero connectivity to the
        input blocks of columns ``>= c``.
        """
        connectivity = self._layers[0].mask if self._layers else None
        if connectivity is None:
            return self.output_layer.mask
        for layer in self._layers[1:]:
            connectivity = connectivity @ layer.mask
        return connectivity @ self.output_layer.mask
