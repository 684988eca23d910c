"""Training-step micro-benchmark: the optimiser must stay allocation-free.

Not a paper table — this guards the in-place ``Adam``/``SGD`` updates and
the single-pass ``clip_grad_norm``: one optimiser step over a DMV-sized
Duet model must not allocate memory proportional to the parameter count
(no ``gradient ** 2`` / ``corrected_*`` temporaries, ``parameter.data``
updated in place).  The allocation bound is checked with ``tracemalloc``
(NumPy registers its buffers there), which is machine-independent; the
steps-per-second comparison against a deliberately allocating reference
implementation is recorded in the ``BENCH_training_step.json`` snapshot.

The same holds for the whole lowered training step (``CompiledTrainStep``:
sampling, forward, loss, backward, clip, Adam) on the DMV model, whose
rows/s is recorded in the ``BENCH_training_step_duet.json`` snapshot
against the autograd tape and against the same lowered step pinned to
float64, so a move is attributed to the lowering or to the float32 GEMMs.
"""

import time
import tracemalloc

import numpy as np

from conftest import record_bench_snapshot

from repro import nn
from repro.core import DuetModel, DuetTrainer
from repro.core.config import dmv_config
from repro.core.train_step import CompiledTrainStep
from repro.data import make_census, make_dmv

STEPS = 30
ROUNDS = 3


class _AllocatingAdam(nn.Optimizer):
    """The pre-optimisation Adam, kept as the timing reference."""

    def __init__(self, parameters, lr=2e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._first = [np.zeros_like(p.data) for p in self.parameters]
        self._second = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        correction1 = 1.0 - self.beta1 ** self._step_count
        correction2 = 1.0 - self.beta2 ** self._step_count
        for parameter, first, second in zip(self.parameters, self._first,
                                            self._second):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            first *= self.beta1
            first += (1.0 - self.beta1) * gradient
            second *= self.beta2
            second += (1.0 - self.beta2) * gradient ** 2
            corrected_first = first / correction1
            corrected_second = second / correction2
            parameter.data = parameter.data - self.lr * corrected_first / (
                np.sqrt(corrected_second) + self.eps)


def _populate_gradients(model):
    values = np.full((32, model.num_columns, 1), -1, dtype=np.int64)
    ops = np.full((32, model.num_columns, 1), -1, dtype=np.int64)
    outputs = model.forward(values, ops)
    outputs.sum().backward()


def _steps_per_second(optimizer, model, steps=STEPS):
    optimizer.step()  # warm-up (first-step lazy work, cache effects)
    started = time.perf_counter()
    for _ in range(steps):
        nn.clip_grad_norm(model.parameters(), 10.0)
        optimizer.step()
    return steps / (time.perf_counter() - started)


def test_training_step_is_allocation_free_and_fast():
    table = make_census(scale=0.04, seed=0)
    model = DuetModel(table, dmv_config(seed=0))
    _populate_gradients(model)
    parameter_bytes = sum(p.data.nbytes for p in model.parameters())
    optimizer = nn.Adam(model.parameters(), lr=2e-3)
    optimizer.step()  # warm up any lazy state before tracing

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    nn.clip_grad_norm(model.parameters(), 10.0)
    optimizer.step()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    allocated = sum(max(stat.size_diff, 0)
                    for stat in after.compare_to(before, "filename"))

    # The guard: one step + clip must not allocate anywhere near the model
    # size (the old implementation allocated ~5x parameter_bytes per step).
    assert allocated < parameter_bytes / 4, (
        f"optimizer step allocated {allocated} bytes "
        f"(model holds {parameter_bytes})")

    reference_model = DuetModel(table, dmv_config(seed=0))
    _populate_gradients(reference_model)
    reference = _AllocatingAdam(reference_model.parameters())
    # Best of alternating rounds: whichever variant is timed first can run
    # at half speed while the process's fresh memory settles.
    in_place_sps = reference_sps = 0.0
    for _ in range(ROUNDS):
        in_place_sps = max(in_place_sps, _steps_per_second(optimizer, model))
        reference_sps = max(reference_sps,
                            _steps_per_second(reference, reference_model))

    print(f"\nAdam steps/s: in-place {in_place_sps:.1f} vs "
          f"allocating reference {reference_sps:.1f} "
          f"({in_place_sps / reference_sps:.2f}x) over "
          f"{parameter_bytes / 1e6:.1f} MB of parameters")
    # In-place must never be meaningfully slower than the allocating form.
    assert in_place_sps > 0.75 * reference_sps

    record_bench_snapshot("training_step", {
        "in_place_steps_per_s_qps": in_place_sps,
        "reference_steps_per_s_qps": reference_sps,
        "step_alloc_bytes": float(allocated),
    })


def test_sgd_momentum_step_is_allocation_free():
    table = make_census(scale=0.04, seed=0)
    model = DuetModel(table, dmv_config(seed=0))
    _populate_gradients(model)
    parameter_bytes = sum(p.data.nbytes for p in model.parameters())
    optimizer = nn.SGD(model.parameters(), lr=1e-2, momentum=0.9,
                       weight_decay=1e-4)
    optimizer.step()

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    optimizer.step()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    allocated = sum(max(stat.size_diff, 0)
                    for stat in after.compare_to(before, "filename"))
    assert allocated < parameter_bytes / 4


def _dmv_trainer(step="float32"):
    """One-batch DMV trainer with negative replay, as a refresh runs it.

    ``step`` is the trainer's default ``"float32"`` lowered step, the
    lowered step pinned to ``"float64"``, or the autograd ``"tape"``.
    """
    table = make_dmv(scale=0.0008)
    trainer = DuetTrainer(DuetModel(table, dmv_config(seed=0)), table, seed=0,
                          train_rows=np.arange(256),
                          negative_codes=table.code_matrix(np.arange(256)))
    trainer._negative_margin = 1e3  # keep the hinge active in every step
    if step == "float64":
        trainer._lowered = CompiledTrainStep(trainer.model, dtype=np.float64)
    elif step == "tape":
        trainer._lowered = None
    return trainer


def _rows_per_second(trainers):
    """Best one-batch-epoch rows/s of each trainer, timed in alternating rounds."""
    for trainer in trainers:
        trainer.train(epochs=1)  # warm-up: buffers, first-step lazy work
    best = [0.0] * len(trainers)
    for _ in range(ROUNDS):
        for slot, trainer in enumerate(trainers):
            best[slot] = max(best[slot], trainer.train_epoch(0).tuples_per_second)
    return best


def test_lowered_duet_step_is_allocation_free_and_faster_than_the_tape():
    trainer = _dmv_trainer()
    model = trainer.model
    parameter_bytes = sum(p.data.nbytes for p in model.parameters())
    lowered_rows_per_s, lowered_f64_rows_per_s, tape_rows_per_s = _rows_per_second(
        [trainer, _dmv_trainer("float64"), _dmv_trainer("tape")])

    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    trainer.train_epoch(0)  # one step: sample, forward, backward, clip, Adam
    peak = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()
    # Only batch-sized temporaries (codes, masks, a ReLU mask): no masked
    # weight copy, gradient array or logit-slice gradient per step.
    assert peak < parameter_bytes / 4, (
        f"a warmed-up lowered step allocated {peak} bytes at its peak "
        f"(model holds {parameter_bytes})")

    print(f"\nDMV training step rows/s, best of 3 alternating: lowered "
          f"{lowered_rows_per_s:.0f} vs lowered float64 "
          f"{lowered_f64_rows_per_s:.0f} vs tape {tape_rows_per_s:.0f} "
          f"({lowered_rows_per_s / tape_rows_per_s:.2f}x); peak step "
          f"allocation {peak / 1e6:.1f} MB over {parameter_bytes / 1e6:.1f} MB "
          f"of parameters")
    assert lowered_rows_per_s > tape_rows_per_s

    record_bench_snapshot("training_step_duet", {
        "lowered_dmv_step_rows_per_s_qps": lowered_rows_per_s,
        "lowered_f64_dmv_step_rows_per_s_qps": lowered_f64_rows_per_s,
        "tape_dmv_step_rows_per_s_qps": tape_rows_per_s,
        "lowered_dmv_step_peak_alloc_bytes": float(peak),
    })
