"""Training loops for Duet: data-driven (Algorithm 1 + cross-entropy) and
hybrid (Algorithm 2, ``L = L_data + lambda * log2(QError + 1)``).

``DuetTrainer`` covers both modes: pass a labelled training workload to get
hybrid training ("Duet" in the paper's tables), pass none — or set
``lambda_query = 0`` — for pure data-driven training ("DuetD").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..nn.blas import all_threads
from ..data.store import DomainGrowthError, TableDelta
from ..data.table import Table
from ..workload.workload import Workload
from .config import DuetConfig
from .model import DuetModel
from .train_step import CompiledTrainStep, StepLosses
from .virtual_table import PredicateGuidance, VirtualTableSampler

__all__ = ["EpochStats", "TrainingHistory", "DuetTrainer"]


@dataclass(frozen=True)
class EpochStats:
    """Aggregated statistics of one training epoch."""

    epoch: int
    data_loss: float
    query_loss: float
    raw_qerror: float
    duration_seconds: float
    tuples_per_second: float
    evaluation: float | None = None


@dataclass
class TrainingHistory:
    """Per-epoch statistics collected during training."""

    epochs: list[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def data_losses(self) -> list[float]:
        return [stats.data_loss for stats in self.epochs]

    @property
    def query_losses(self) -> list[float]:
        return [stats.query_loss for stats in self.epochs]

    @property
    def raw_qerrors(self) -> list[float]:
        return [stats.raw_qerror for stats in self.epochs]

    @property
    def evaluations(self) -> list[float | None]:
        return [stats.evaluation for stats in self.epochs]

    @property
    def mean_throughput(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([stats.tuples_per_second for stats in self.epochs]))

    def best_epoch(self) -> int:
        """Epoch index with the best (lowest) evaluation value."""
        scored = [(stats.evaluation, stats.epoch) for stats in self.epochs
                  if stats.evaluation is not None]
        if not scored:
            raise ValueError("no evaluation values were recorded")
        return min(scored)[1]


class DuetTrainer:
    """Implements Algorithm 2 (hybrid training) and its data-only ablation."""

    def __init__(
        self,
        model: DuetModel,
        table: Table,
        training_workload: Workload | None = None,
        config: DuetConfig | None = None,
        seed: int | None = None,
        guidance: "PredicateGuidance | None" = None,
        train_rows: np.ndarray | None = None,
        negative_codes: np.ndarray | None = None,
        negative_weight: float | None = None,
        throttle: "Callable[[], None] | None" = None,
    ) -> None:
        self.model = model
        self.table = table
        self.config = config or model.config
        self.workload = training_workload
        if self.workload is not None and not self.workload.is_labeled:
            self.workload.label(table)
        self.sampler = VirtualTableSampler(table.cardinalities, self.config, seed=seed,
                                           guidance=guidance)
        self.optimizer = nn.Adam(model.parameters(), lr=self.config.learning_rate)
        self._rng = np.random.default_rng(self.config.seed if seed is None else seed)
        #: table row indices an epoch iterates over; :meth:`fine_tune` passes
        #: the appended rows plus a replay sample so only that slice of a
        #: large table is ever gathered into memory
        self.train_row_indices = (np.arange(table.num_rows) if train_rows is None
                                  else np.asarray(train_rows, dtype=np.int64))
        #: optional backpressure hook called after every optimiser step;
        #: a background tuner passes one that periodically sleeps so the
        #: GIL (and with it serving traffic) is never starved for long
        self.throttle = throttle
        self._codes = table.code_matrix(None if train_rows is None
                                        else self.train_row_indices)
        #: code matrix of *removed* tuples (negative replay): each step a
        #: sample of them runs through the same virtual-table objective, but
        #: as a hinge penalty active only while the model still assigns them
        #: more likelihood than a uniform model would — "unlearn down to
        #: background level, then stop" (which keeps the penalty bounded and
        #: the training stable, unlike unbounded gradient ascent)
        self._negative_codes = (np.asarray(negative_codes, dtype=np.int64)
                                if negative_codes is not None
                                and len(negative_codes) else None)
        self.negative_weight = (self.config.negative_weight
                                if negative_weight is None
                                else float(negative_weight))
        # Uniform-model cross-entropy over the columns: sum of ln(NDV).
        self._negative_margin = float(sum(
            np.log(max(cardinality, 1)) for cardinality in table.cardinalities))
        self._query_arrays = None
        if self.hybrid:
            # Pre-translate the training workload once; batches are sliced per
            # step, which is much cheaper than re-encoding queries every step.
            # Only the code intervals are kept (O(queries × columns)); each
            # step derives the dense masks of its own sampled queries.
            values, ops, intervals = self.model.codec.translate_batch(
                self.workload.queries)
            self._query_arrays = (values, ops, intervals,
                                  np.asarray(self.workload.cardinalities, dtype=np.float64))
        #: the lowered training step for models without MPSNs; MPSN models
        #: train on the autograd tape
        self._lowered = (None if model.config.multi_predicate
                         else CompiledTrainStep(model))

    # ------------------------------------------------------------------
    @property
    def hybrid(self) -> bool:
        """Whether query supervision is used (the paper's "Duet" vs "DuetD")."""
        return self.workload is not None and self.config.lambda_query > 0

    # ------------------------------------------------------------------
    def _iterate_batches(self):
        order = self._rng.permutation(self._codes.shape[0])
        for start in range(0, order.size, self.config.batch_size):
            yield self._codes[order[start:start + self.config.batch_size]]

    def _query_batch(self):
        values, ops, intervals, cards = self._query_arrays
        count = min(self.config.query_batch_size, values.shape[0])
        picked = self._rng.choice(values.shape[0], size=count, replace=False)
        masks = intervals.take(picked).dense_masks()
        return values[picked], ops[picked], masks, cards[picked]

    # ------------------------------------------------------------------
    def _data_loss(self, batch_codes: np.ndarray) -> Tensor:
        """Unsupervised loss: cross-entropy on the virtual-table sample."""
        virtual = self.sampler.sample_batch(batch_codes)
        outputs = self.model.forward(virtual.values, virtual.ops)
        loss: Tensor | None = None
        for column_index in range(self.table.num_columns):
            logits = self.model.column_logits(outputs, column_index)
            column_loss = F.cross_entropy(logits, virtual.labels[:, column_index])
            loss = column_loss if loss is None else loss + column_loss
        return loss

    def _negative_batch(self):
        """Virtual-table sample around a random subset of removed tuples."""
        count = min(self.config.batch_size, self._negative_codes.shape[0])
        picked = self._rng.choice(self._negative_codes.shape[0], size=count,
                                  replace=False)
        return self.sampler.sample_batch(self._negative_codes[picked])

    def _negative_loss(self) -> Tensor:
        """Negative-replay hinge on a sample of removed tuples.

        The removed tuples run through the *same* Algorithm 1 objective as
        the data loss — virtual-table predicates sampled around them,
        per-column cross-entropy — but mirrored: the penalty is
        ``relu(margin - CE)`` with the margin at the uniform model's
        cross-entropy, so gradients push the removed tuples' likelihood
        *down*, and vanish once they are no more likely than background.
        """
        virtual = self._negative_batch()
        outputs = self.model.forward(virtual.values, virtual.ops)
        ce: Tensor | None = None
        for column_index in range(self.table.num_columns):
            logits = self.model.column_logits(outputs, column_index)
            column_loss = F.cross_entropy(logits, virtual.labels[:, column_index])
            ce = column_loss if ce is None else ce + column_loss
        return (self._negative_margin - ce).relu()

    def _query_loss(self) -> tuple[Tensor, float]:
        """Supervised loss: mapped Q-Error on a batch of training queries."""
        values, ops, masks, cards = self._query_batch()
        outputs = self.model.forward(values, ops)
        selectivity = self.model.selectivity_from_outputs(outputs, masks)
        estimates = selectivity * float(self.table.num_rows)
        raw = F.qerror(estimates, cards)
        mapped = F.mapped_qerror_loss(estimates, cards).mean()
        return mapped, float(raw.numpy().mean())

    @property
    def _negatives_on(self) -> bool:
        return self._negative_codes is not None and self.negative_weight > 0

    def _tape_step(self, batch_codes: np.ndarray) -> StepLosses:
        """Loss and ``.grad`` of one step on the autograd tape.

        The training path of MPSN models, and the oracle the lowered step
        is tested against.
        """
        loss = self._data_loss(batch_codes)
        data_loss = loss.item()
        if self._negatives_on:
            loss = loss + self._negative_loss() * self.negative_weight
        query_loss = raw_qerror = None
        if self.hybrid:
            query_term, raw_qerror = self._query_loss()
            query_loss = query_term.item()
            loss = loss + query_term * self.config.lambda_query
        self.optimizer.zero_grad()
        loss.backward()
        return StepLosses(data_loss, query_loss, raw_qerror)

    def _step(self, batch_codes: np.ndarray) -> StepLosses:
        """Loss and ``.grad`` of one step, lowered where the model allows."""
        if self._lowered is None:
            return self._tape_step(batch_codes)
        return self._lowered_step(batch_codes)

    def _lowered_step(self, batch_codes: np.ndarray) -> StepLosses:
        """The same step through :class:`CompiledTrainStep`.

        Draws from the sampler and ``self._rng`` in the tape's order (data
        sample, negative replay, query batch), so both see the same batches.
        """
        data = self.sampler.sample_batch(batch_codes)
        negative = self._negative_batch() if self._negatives_on else None
        query = self._query_batch() if self.hybrid else None
        return self._lowered.run(
            data, negative, query,
            negative_margin=self._negative_margin,
            negative_weight=self.negative_weight,
            lambda_query=self.config.lambda_query,
            num_rows=self.table.num_rows)

    # ------------------------------------------------------------------
    def train_epoch(self, epoch: int, evaluation_fn=None) -> EpochStats:
        """One pass over the table (Algorithm 2's outer loop body)."""
        self.model.train()
        data_losses: list[float] = []
        query_losses: list[float] = []
        raw_qerrors: list[float] = []
        tuples_processed = 0
        started = time.perf_counter()

        for batch_codes in self._iterate_batches():
            step = self._step(batch_codes)
            data_losses.append(step.data_loss)
            if step.query_loss is not None:
                query_losses.append(step.query_loss)
                raw_qerrors.append(step.raw_qerror)
            if self.config.grad_clip:
                nn.clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            self.optimizer.step()
            tuples_processed += batch_codes.shape[0]
            if self.throttle is not None:
                self.throttle()

        duration = time.perf_counter() - started
        evaluation = None
        if evaluation_fn is not None:
            evaluation = float(evaluation_fn(self.model))
        return EpochStats(
            epoch=epoch,
            data_loss=float(np.mean(data_losses)) if data_losses else 0.0,
            query_loss=float(np.mean(query_losses)) if query_losses else 0.0,
            raw_qerror=float(np.mean(raw_qerrors)) if raw_qerrors else 0.0,
            duration_seconds=duration,
            tuples_per_second=tuples_processed / max(duration, 1e-9),
            evaluation=evaluation,
        )

    def train(self, epochs: int | None = None, evaluation_fn=None) -> TrainingHistory:
        """Run the full training loop and return the per-epoch history.

        The trained model keeps no gradients: serving never reads them, and
        each would hold one parameter-sized array per model version.
        """
        history = TrainingHistory()
        with all_threads():
            for epoch in range(epochs if epochs is not None else self.config.epochs):
                history.append(self.train_epoch(epoch, evaluation_fn=evaluation_fn))
        self.model.zero_grad()
        return history

    # ------------------------------------------------------------------
    @classmethod
    def fine_tune(
        cls,
        snapshot: Table,
        base_model: DuetModel,
        delta: "TableDelta",
        *,
        training_workload: Workload | None = None,
        config: DuetConfig | None = None,
        epochs: int = 1,
        replay_fraction: float = 0.25,
        negative_weight: float | None = None,
        seed: int | None = None,
        throttle: "Callable[[], None] | None" = None,
    ) -> tuple["DuetTrainer", TrainingHistory]:
        """Refresh ``base_model`` on churned data instead of retraining.

        The incremental half of the paper's operational claim: Algorithm 1's
        virtual-table sampling runs over the *delta* rows (plus a replay
        sample of ``replay_fraction * churned_rows`` surviving rows against
        forgetting), so the cost is proportional to the churn, not the
        table.  Mixed deltas are absorbed from both sides: the appended
        still-live rows (the tail of ``snapshot``) are trained on directly,
        and the delta's *removed* rows are replayed as negatives — a hinge
        penalty that pushes their likelihood down toward uniform
        (``negative_weight``, default :attr:`DuetConfig.negative_weight`).
        A pure-delete delta falls back to a replay sample of surviving rows
        as its positive side, so the model always sees live data while
        unlearning the dead rows.

        ``base_model`` is rebound to ``snapshot`` (updating the row count
        selectivities scale by) and updated **in place**; appends that grew
        a column's domain raise a typed
        :class:`~repro.data.DomainGrowthError` because the model's encoding
        and output shapes no longer fit — that case needs a cold train.

        Returns ``(trainer, history)``; the trainer can keep fine-tuning
        (e.g. :meth:`finetune_on_queries` on post-append feedback).
        """
        if replay_fraction < 0:
            raise ValueError("replay_fraction must be non-negative")
        if delta.domains_grew:
            raise DomainGrowthError(
                f"columns {list(delta.grown_columns)} grew their domain between "
                f"versions {delta.base_version} and {delta.new_version}; "
                f"fine-tuning cannot change the model's shapes — train a new "
                f"model on the snapshot instead",
                columns=delta.grown_columns)
        base_model.rebind(snapshot)
        surviving = max(delta.surviving_base_rows, 0)
        removed_count = delta.removed_rows
        # Appended-and-live rows occupy the live view's tail (surviving base
        # rows keep their relative order at the front).
        appended = np.arange(surviving, snapshot.num_rows)
        replay_count = min(int(round(replay_fraction * delta.churned_rows)),
                           surviving)
        if appended.size == 0 and removed_count and replay_count == 0:
            # Pure delete with a tiny churn: still show the model live data
            # alongside the negatives.
            replay_count = min(surviving, removed_count)
        rng = np.random.default_rng((config or base_model.config).seed
                                    if seed is None else seed)
        replay = rng.choice(surviving, size=replay_count, replace=False)
        negative_codes = (delta.removed.code_matrix()
                          if removed_count else None)
        trainer = cls(base_model, snapshot, training_workload, config, seed=seed,
                      train_rows=np.concatenate([appended, replay]),
                      negative_codes=negative_codes,
                      negative_weight=negative_weight,
                      throttle=throttle)
        history = trainer.train(epochs)
        return trainer, history

    # ------------------------------------------------------------------
    def finetune_on_queries(self, workload: Workload, steps: int = 50) -> list[float]:
        """Post-deployment fine-tuning on (historical) queries only.

        The paper highlights that Duet's differentiable estimation lets a
        deployed model be tuned on the queries that showed large errors.
        Returns the mapped query loss per step.
        """
        if not workload.is_labeled:
            workload.label(self.table)
        values, ops, intervals = self.model.codec.translate_batch(workload.queries)
        cards = np.asarray(workload.cardinalities, dtype=np.float64)
        losses: list[float] = []
        self.model.train()
        for _ in range(steps):
            count = min(self.config.query_batch_size, values.shape[0])
            picked = self._rng.choice(values.shape[0], size=count, replace=False)
            outputs = self.model.forward(values[picked], ops[picked])
            selectivity = self.model.selectivity_from_outputs(
                outputs, intervals.take(picked).dense_masks())
            estimates = selectivity * float(self.table.num_rows)
            loss = F.mapped_qerror_loss(estimates, cards[picked]).mean()
            self.optimizer.zero_grad()
            loss.backward()
            if self.config.grad_clip:
                nn.clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            self.optimizer.step()
            losses.append(loss.item())
        self.model.zero_grad()
        return losses
