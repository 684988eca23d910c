"""Compiled grad-free inference: lowered forward plans over raw NumPy arrays.

The autograd :class:`~repro.nn.tensor.Tensor` tape is the right substrate for
training, but a serving hot path pays for it on every request: per-operator
Python dispatch, graph-bookkeeping closures, fresh ``float64`` temporaries,
and (for MADE) an ``in x out`` mask multiplication re-materialised on every
forward.  This module lowers a trained network *once* into a
:class:`ForwardPlan` — a flat list of fused linear(+activation) stages whose

* MADE masks are folded into the weight matrices at compile time
  (``W_folded = W * mask``); a stage whose ``row_limits`` say that each
  output block reads only a row prefix (a large MADE output layer, whose
  hidden units are listed in degree order) runs one GEMM per block over
  slices of the folded weight, skipping the masked-out rows,
* output buffers are preallocated and reused across micro-batches
  (``np.dot(..., out=...)`` writes straight into them), and
* arithmetic optionally runs in ``float32`` (half the memory traffic; the
  paper's models are trained well within ``float32`` head-room).

The companion :func:`masked_block_mass` kernel fuses Algorithm 3's zero-out:
it computes each constrained column's masked probability mass directly from
the raw logits (stable ``exp``-shift, one masked row-sum against the full
block sum) and skips unconstrained columns entirely — no dense softmax over
every column, no all-ones masks.

Plans are deliberately *not* thread-safe: buffers are shared across calls.
Wrap concurrent use in a lock (see :class:`repro.core.compiled.CompiledDuetModel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PlanOptions",
    "StageSpec",
    "ForwardPlan",
    "masked_block_mass",
    "stable_softmax",
    "stable_sigmoid",
    "lower_module",
]

_DTYPES = {"float32": np.float32, "float64": np.float64}
_ACTIVATIONS = ("relu", "tanh", "sigmoid")


@dataclass(frozen=True)
class PlanOptions:
    """Compile-time knobs of a lowered plan.

    ``dtype`` selects the arithmetic precision of every stage:

    * ``"float64"`` (default) — matches the tape path to ~1e-15 relative;
    * ``"float32"`` — halves memory traffic; selectivities agree with the
      tape path to roughly single-precision resolution (~1e-5 relative),
      which is far below the model's own estimation error.
    """

    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPES:
            raise ValueError(f"unknown plan dtype {self.dtype!r}; "
                             f"choose from {tuple(_DTYPES)}")

    @property
    def numpy_dtype(self) -> type:
        return _DTYPES[self.dtype]

    # -- registry persistence -------------------------------------------
    def to_dict(self) -> dict:
        return {"dtype": self.dtype}

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanOptions":
        return cls(**payload)


class StageSpec:
    """One fused stage: ``y = act(x @ weight + bias [+ skip])``.

    ``residual_from`` is the index of an earlier stage whose output is added
    *after* this stage's activation (``y = act(x @ W + b) + y_skip``, the
    ResMADE convention); ``None`` means no skip.  ``activation`` is one of
    ``"relu"``, ``"tanh"``, ``"sigmoid"`` or ``None`` (linear output stage).

    ``row_limits`` declares a row-prefix sparsity of ``weight``: a list of
    ``(rows, start, end)`` blocks tiling the output columns, where columns
    ``[start, end)`` read only input rows ``[0, rows)`` (the rest of their
    weight is zero).  The plan then runs one GEMM per block over those
    slices.  ``None`` means dense.
    """

    __slots__ = ("weight", "bias", "activation", "residual_from", "row_limits")

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 activation: str | None = None,
                 residual_from: int | None = None,
                 row_limits: Sequence[tuple[int, int, int]] | None = None) -> None:
        if activation is not None and activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weight = np.asarray(weight)
        self.bias = None if bias is None else np.asarray(bias)
        self.activation = activation
        self.residual_from = residual_from
        self.row_limits = None if row_limits is None else tuple(
            (int(rows), int(start), int(end)) for rows, start, end in row_limits)
        if self.row_limits is not None:
            rows, starts, ends = (list(part) for part in zip(*self.row_limits))
            if (starts != [0, *ends[:-1]] or ends[-1] != self.out_features
                    or not all(0 <= live <= self.in_features for live in rows)):
                raise ValueError("row_limits must tile the output columns in "
                                 "order, each block reading a row prefix")

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]


def _apply_activation(buffer: np.ndarray, activation: str | None) -> None:
    """Apply ``activation`` to ``buffer`` in place (no temporaries)."""
    if activation is None:
        return
    if activation == "relu":
        np.maximum(buffer, 0.0, out=buffer)
    elif activation == "tanh":
        np.tanh(buffer, out=buffer)
    else:
        stable_sigmoid(buffer, out=buffer)


class ForwardPlan:
    """A lowered feed-forward network: fused stages over preallocated buffers.

    ``run`` returns a **view into an internal buffer** that is valid until
    the next ``run``/``reserve`` call; callers that need the result beyond
    that must copy.  Buffers grow to the largest batch seen and are then
    reused (a micro-batching server therefore allocates exactly once per
    stage for its whole lifetime).
    """

    def __init__(self, stages: Sequence[StageSpec],
                 options: PlanOptions | None = None) -> None:
        if not stages:
            raise ValueError("a plan needs at least one stage")
        self.options = options or PlanOptions()
        dtype = self.options.numpy_dtype
        self.stages: list[StageSpec] = []
        for index, stage in enumerate(stages):
            if stage.residual_from is not None and not 0 <= stage.residual_from < index:
                raise ValueError(f"stage {index} has residual_from="
                                 f"{stage.residual_from}, expected an earlier stage")
            # Always copy: the in-place optimisers mutate parameter arrays,
            # and a compiled plan must stay a snapshot of compile time.
            self.stages.append(StageSpec(
                np.array(stage.weight, dtype=dtype, order="C"),
                None if stage.bias is None
                else np.array(stage.bias, dtype=dtype, order="C"),
                stage.activation, stage.residual_from, stage.row_limits))
        widths = [s.in_features for s in self.stages] + [self.stages[-1].out_features]
        for left, right in zip(self.stages[:-1], self.stages[1:]):
            if left.out_features != right.in_features:
                raise ValueError(f"stage width mismatch: {left.out_features} "
                                 f"-> {right.in_features}")
        self.input_width = widths[0]
        self.output_width = widths[-1]
        self.dtype = dtype
        self._capacity = 0
        self._buffers: list[np.ndarray] = []
        self._input_buffer: np.ndarray | None = None
        # Per-stage profiling: cumulative wall time and invocation counts,
        # populated only while enable_profiling(True) is in effect (the
        # profiled loop reads the clock twice per stage, so it is opt-in).
        self._profile = False
        self.stage_seconds = [0.0] * len(self.stages)
        self.stage_calls = [0] * len(self.stages)

    # ------------------------------------------------------------------
    def reserve(self, batch: int) -> None:
        """Preallocate every stage buffer for ``batch`` rows."""
        if batch <= self._capacity:
            return
        self._buffers = [np.empty((batch, stage.out_features), dtype=self.dtype)
                         for stage in self.stages]
        self._input_buffer = np.empty((batch, self.input_width), dtype=self.dtype)
        self._capacity = batch

    @property
    def buffer_bytes(self) -> int:
        """Current footprint of the reusable buffers (monitoring aid)."""
        total = sum(buffer.nbytes for buffer in self._buffers)
        if self._input_buffer is not None:
            total += self._input_buffer.nbytes
        return total

    # ------------------------------------------------------------------
    # Per-stage profiling
    # ------------------------------------------------------------------
    @property
    def profiling(self) -> bool:
        return self._profile

    def enable_profiling(self, enabled: bool = True) -> None:
        """Toggle per-stage wall-time/invocation accounting on ``run``."""
        self._profile = enabled

    def reset_profile(self) -> None:
        self.stage_seconds = [0.0] * len(self.stages)
        self.stage_calls = [0] * len(self.stages)

    def profile_report(self) -> list[dict]:
        """Accumulated per-stage cost, in execution order.

        One entry per :class:`StageSpec`: shape, activation, invocation
        count, cumulative seconds.  All zeros until profiling is enabled.
        """
        return [
            {"stage": index,
             "in_features": stage.in_features,
             "out_features": stage.out_features,
             "activation": stage.activation,
             "residual_from": stage.residual_from,
             "calls": self.stage_calls[index],
             "seconds": self.stage_seconds[index]}
            for index, stage in enumerate(self.stages)
        ]

    # ------------------------------------------------------------------
    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Execute the plan; returns a buffer view valid until the next call."""
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_width:
            raise ValueError(f"expected inputs of shape (batch, {self.input_width}), "
                             f"got {inputs.shape}")
        batch = inputs.shape[0]
        if batch == 0:
            return np.empty((0, self.output_width), dtype=self.dtype)
        self.reserve(batch)
        if inputs.dtype != self.dtype or not inputs.flags.c_contiguous:
            staged = self._input_buffer[:batch]
            np.copyto(staged, inputs, casting="same_kind" if
                      inputs.dtype.kind == "f" else "unsafe")
            current = staged
        else:
            current = inputs
        outputs: list[np.ndarray] = []
        profile = self._profile  # hoisted: the off path stays one bool test
        for index, stage in enumerate(self.stages):
            if profile:
                stage_started = time.perf_counter()
            out = self._buffers[index][:batch]
            if stage.row_limits is None:
                np.dot(current, stage.weight, out=out)
            else:
                # One GEMM per block over strided slices of the weight: the
                # masked-out rows past each block's prefix are skipped.
                for rows, start, end in stage.row_limits:
                    if rows:
                        np.matmul(current[:, :rows], stage.weight[:rows, start:end],
                                  out=out[:, start:end])
                    else:
                        out[:, start:end] = 0.0
            if stage.bias is not None:
                out += stage.bias
            _apply_activation(out, stage.activation)
            if stage.residual_from is not None:
                out += outputs[stage.residual_from]
            outputs.append(out)
            current = out
            if profile:
                self.stage_seconds[index] += time.perf_counter() - stage_started
                self.stage_calls[index] += 1
        return current

    __call__ = run


# ----------------------------------------------------------------------
# Fused masked selectivity (Algorithm 3's zero-out, straight from logits)
# ----------------------------------------------------------------------

def masked_block_mass(logits: np.ndarray,
                      blocks: Sequence[tuple[int, int]],
                      masks: Sequence[np.ndarray | None]) -> np.ndarray:
    """Product over constrained columns of the masked softmax mass.

    ``logits`` is the raw ``(batch, total_output)`` network output;
    ``blocks[i] = (start, end)`` is column ``i``'s logit slice; ``masks[i]``
    is either ``None`` (column unconstrained — skipped entirely, its factor
    is exactly 1) or the dense ``(batch, NDV_i)`` valid-value mask.

    For each constrained column the masked probability mass is computed
    directly from the logits::

        mass = sum_{v in mask} exp(l_v - m) / sum_v exp(l_v - m)

    All constrained blocks are gathered into one contiguous matrix and the
    per-block max/sum/masked-sum run as ``reduceat`` segments, so the kernel
    costs a fixed ~10 NumPy calls however many columns are constrained — no
    full softmax distribution is materialised and nothing at all is computed
    for unconstrained columns.  Returns a fresh ``(batch,)`` array.
    """
    logits = np.asarray(logits)
    batch = logits.shape[0]
    dtype = logits.dtype
    gathered = [(start, end, mask)
                for (start, end), mask in zip(blocks, masks) if mask is not None]
    if not gathered:
        return np.ones(batch, dtype=dtype)
    widths = np.array([end - start for start, end, _ in gathered])
    segments = np.zeros(len(gathered), dtype=np.intp)
    np.cumsum(widths[:-1], out=segments[1:])
    shifted = np.concatenate([logits[:, start:end] for start, end, _ in gathered],
                             axis=1)
    maxima = np.maximum.reduceat(shifted, segments, axis=1)
    shifted -= np.repeat(maxima, widths, axis=1)
    np.exp(shifted, out=shifted)
    denominator = np.add.reduceat(shifted, segments, axis=1)
    mask_matrix = (gathered[0][2] if len(gathered) == 1
                   else np.concatenate([mask for _, _, mask in gathered], axis=1))
    np.multiply(shifted, mask_matrix, out=shifted)
    numerator = np.add.reduceat(shifted, segments, axis=1)
    numerator /= denominator
    return numerator.prod(axis=1)


def stable_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-NumPy stable softmax (compiled counterpart of ``F.softmax``)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def stable_sigmoid(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Plain-NumPy clipped sigmoid matching ``Tensor.sigmoid``.

    Pass ``out=values`` (as the plan activations do) to run fully in place.
    """
    out = np.clip(values, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

def lower_module(module, options: PlanOptions | None = None) -> ForwardPlan:
    """Lower a module that provides ``export_stage_specs`` into a plan.

    ``Linear``/``MaskedLinear``, ``Sequential`` chains of linear layers and
    activations, and ``MADE`` all export stage specs (masks folded, residual
    links resolved); anything else raises ``TypeError``.
    """
    export = getattr(module, "export_stage_specs", None)
    if export is None:
        raise TypeError(f"{type(module).__name__} cannot be lowered: "
                        f"it does not export stage specs")
    return ForwardPlan(export(), options)
