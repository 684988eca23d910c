"""Cold-train escalation: when fine-tuning cannot absorb a change, retrain.

An append that grows a column's domain changes the model's encoding and
output shapes, so :meth:`EstimationService.tune` fails with a typed
:class:`~repro.data.DomainGrowthError` instead of fine-tuning.  Before the
lifecycle controller existed that error stopped the story; this module makes
domain growth degrade to *eventual freshness*: a brand-new
:class:`~repro.core.DuetModel` is trained on the offending snapshot (same
architecture config as the served model) and committed through the same
gate → save → install tail as a fine-tune
(:meth:`~repro.serving.EstimationService.commit`) — while the old model
keeps serving every request until the very last step.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from ..core.model import DuetModel
from ..core.trainer import DuetTrainer
from ..serving.service import TuneOutcome

__all__ = ["cold_train_and_swap", "start_cold_train"]


def cold_train_and_swap(service, *, epochs: int | None = None,
                        training_workload=None, config=None,
                        throttle=None, version: str | None = None,
                        gate=None) -> TuneOutcome:
    """Train a fresh model on the store's current snapshot and commit it.

    Runs synchronously on the calling thread (the scheduler calls it from a
    background thread via :func:`start_cold_train`).  The served model is
    untouched until the commit's install, so serving never sees a
    half-trained model.  ``gate`` is the canary hook the commit consults.
    Never raises: a failure leaves the service exactly as it was and comes
    back as a ``failed`` outcome, matching the controller's
    never-crash-serving contract.
    """
    try:
        if service.store is None:
            raise RuntimeError("cold_train_and_swap needs a service with a "
                               "live ColumnStore")
        snapshot = service.store.snapshot()
        if config is None:
            served = getattr(service.estimator, "model", None)
            if served is None:
                raise RuntimeError(
                    f"estimator {service.estimator.name!r} has no model to "
                    f"take an architecture config from; pass config=...")
            config = served.config
        model = DuetModel(snapshot, config)
        DuetTrainer(model, snapshot, training_workload, config,
                    throttle=throttle).train(epochs)
        return service.commit(
            model, snapshot.data_version, gate=gate, version=version,
            metadata={"cold_trained": True,
                      "escalated_from": service.model_version})
    except Exception as error:  # noqa: BLE001 — reported, never raised into serving
        return TuneOutcome("failed", error=error)


def start_cold_train(service, **kwargs) -> "Future[TuneOutcome]":
    """Run :func:`cold_train_and_swap` on a daemon thread; returns its future.

    ``kwargs`` are :func:`cold_train_and_swap`'s keyword arguments.
    """
    future: Future = Future()

    def run() -> None:
        try:
            future.set_result(cold_train_and_swap(service, **kwargs))
        except BaseException as error:  # interrupt/exit: resolve, then re-raise
            future.set_exception(error)
            raise

    threading.Thread(target=run, name="repro-cold-train", daemon=True).start()
    return future
