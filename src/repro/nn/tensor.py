"""A small reverse-mode automatic differentiation engine on top of NumPy.

The Duet paper builds its models with PyTorch.  PyTorch is not available in
this offline environment, so this module provides the minimal but complete
autograd substrate the reproduction needs: a :class:`Tensor` wrapping a NumPy
array, a tape of parent links, and a topological-order backward pass.

The design goals are explicitness and testability rather than raw speed.
Every operator used by the models in this repository (MADE, ResMADE, MLP
MPSNs, LSTM MPSNs, MSCN, UAE's Gumbel-Softmax relaxation) is implemented
here with full broadcasting support.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread autograd switch.

    Thread-local so concurrent inference (the serving layer runs
    ``no_grad`` blocks from many worker threads at once) cannot race on a
    shared flag and leave gradient tracking permanently disabled.
    """

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad()``: operations executed inside the block build
    no autograd graph, which keeps inference cheap and deterministic.  The
    switch is per-thread, like PyTorch's.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _grad_mode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for autograd."""
    return _grad_mode.enabled


def _is_basic_index(index) -> bool:
    """Whether ``index`` uses only basic indexing (ints, slices, ``...``)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(item, (int, np.integer, slice)) or item is None
               or item is Ellipsis for item in items)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after a broadcast op.

    NumPy broadcasting can add leading dimensions and stretch size-1 axes;
    the corresponding gradient must be summed back over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _grad_mode.enabled
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce ``value`` to a Tensor (constants get no gradient)."""
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=np.float64))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new Tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # The copy makes the buffer this tensor's own, so later
            # contributions can add into it in place.
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_at(self, index, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad[index]`` in place.

        The backward of indexing: no full-size zero array per read.  Basic
        indices (ints, slices) never repeat an element, so a plain ``+=``
        is exact; advanced indices scatter with ``np.add.at``.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        if _is_basic_index(index):
            self.grad[index] += grad
        else:
            np.add.at(self.grad, index, grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * (self.data ** (exponent - 1)))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1
                                     else grad[..., None] * other.data)
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def clip(self, minimum: float | None = None, maximum: float | None = None) -> "Tensor":
        out_data = np.clip(self.data, minimum, maximum)
        pass_through = np.ones_like(self.data)
        if minimum is not None:
            pass_through = pass_through * (self.data >= minimum)
        if maximum is not None:
            pass_through = pass_through * (self.data <= maximum)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * pass_through)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                expanded = np.broadcast_to(grad, self.data.shape)
            self._accumulate(expanded)

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(grad * mask)
            else:
                expanded_max = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded_max).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                g = grad if keepdims else np.expand_dims(grad, axis=axis)
                self._accumulate(mask * g)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(original_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).transpose(inverse))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            self._accumulate_at(index, grad)

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, end)
                tensor._accumulate(grad[tuple(slicer)])

        parents = tuple(tensors)
        requires = _grad_mode.enabled and any(t.requires_grad for t in tensors)
        if not requires:
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=True, _parents=parents, _backward=backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        parents = tuple(tensors)
        requires = _grad_mode.enabled and any(t.requires_grad for t in tensors)
        if not requires:
            return Tensor(out_data)
        return Tensor(out_data, requires_grad=True, _parents=parents, _backward=backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    ordering.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None
