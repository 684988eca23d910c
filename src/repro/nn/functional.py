"""Numerically stable functional operations used by the models.

These mirror the subset of ``torch.nn.functional`` that the Duet paper's
models rely on: softmax / log-softmax, cross-entropy with integer targets,
the Gumbel-Softmax relaxation used by the UAE baseline, and the Q-Error
losses used for hybrid training.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy",
    "gumbel_softmax",
    "qerror",
    "mapped_qerror_loss",
]


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` computed in a numerically stable way.

    The max subtraction uses a detached constant; subtracting a constant does
    not change the softmax, so gradients remain exact.
    """
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood for integer class targets.

    ``log_probs`` has shape ``(batch, num_classes)`` and ``targets`` holds an
    integer class index per row.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = np.arange(log_probs.shape[0])
    picked = log_probs[batch, targets]
    loss = -picked
    return _reduce(loss, reduction)


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between raw ``logits`` and integer class ``targets``.

    The same values as ``nll_loss(log_softmax(logits), targets)``, recorded
    as one tape node whose backward is ``softmax − one-hot``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(logits.shape[0])
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    probabilities = np.exp(shifted)
    totals = probabilities.sum(axis=-1, keepdims=True)
    per_row = np.log(totals[:, 0]) - shifted[rows, targets]

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        d_logits = probabilities / totals
        d_logits[rows, targets] -= 1.0
        d_logits *= np.asarray(grad)[..., None]
        logits._accumulate(d_logits)

    losses = logits._make(per_row, (logits,), backward)
    return _reduce(losses, reduction)


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = Tensor.ensure(target)
    diff = prediction - target
    return _reduce(diff * diff, reduction)


def binary_cross_entropy(probabilities: Tensor, target: Tensor | np.ndarray,
                         epsilon: float = 1e-12, reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)``."""
    target = Tensor.ensure(target)
    clipped = probabilities.clip(epsilon, 1.0 - epsilon)
    loss = -(target * clipped.log() + (1.0 - target) * (1.0 - clipped).log())
    return _reduce(loss, reduction)


def gumbel_softmax(logits: Tensor, temperature: float = 1.0,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Differentiable sample from a categorical distribution (UAE baseline).

    This is the Gumbel-Softmax trick: perturb the logits with Gumbel noise
    and apply a temperature-scaled softmax.  Gradients flow through the
    softmax, which is what lets UAE backpropagate through its progressive
    sampling.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    rng = rng or np.random.default_rng()
    uniform = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=logits.shape)
    gumbel_noise = Tensor(-np.log(-np.log(uniform)))
    return softmax((logits + gumbel_noise) / temperature, axis=-1)


def qerror(estimate: Tensor, actual: Tensor | np.ndarray, floor: float = 1.0) -> Tensor:
    """Differentiable Q-Error ``max(est, act) / min(est, act)``.

    Both estimate and actual are clamped below by ``floor`` (one tuple), the
    convention used by the paper and by UAE, so that empty results do not
    produce infinite errors.
    """
    actual = Tensor.ensure(actual)
    est = estimate.clip(minimum=floor)
    act = actual.clip(minimum=floor)
    ratio = est / act
    inverse = act / est
    # max(a, b) == a * 1[a >= b] + b * 1[a < b]; the indicator is a constant
    # w.r.t. the gradient so it is computed on detached data.
    indicator = Tensor((ratio.data >= inverse.data).astype(np.float64))
    return ratio * indicator + inverse * (1.0 - indicator)


def mapped_qerror_loss(estimate: Tensor, actual: Tensor | np.ndarray,
                       floor: float = 1.0) -> Tensor:
    """The paper's hybrid-training query loss ``log2(QError + 1)``.

    Mapping through ``log2(x + 1)`` keeps ``L_query`` on the same order of
    magnitude as ``L_data`` and prevents gradient explosions early in
    training (Figure 3 of the paper).
    """
    q = qerror(estimate, actual, floor=floor)
    return (q + 1.0).log() / float(np.log(2.0))


def _reduce(values: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return values.mean()
    if reduction == "sum":
        return values.sum()
    if reduction == "none":
        return values
    raise ValueError(f"unknown reduction: {reduction!r}")
