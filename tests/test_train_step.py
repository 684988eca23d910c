"""The lowered training step against its oracle, the autograd tape.

``CompiledTrainStep`` replaces the tape for every Duet model without MPSNs.
On seeded batches its per-parameter float64 gradients must equal the tape's
(``_data_loss`` / ``_negative_loss`` / ``_query_loss`` + ``backward()``)
for every loss term, and whole training runs must follow the same
trajectory.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import DuetConfig, DuetModel, DuetTrainer
from repro.core.compiled import CompiledDuetModel
from repro.core.train_step import CompiledTrainStep
from repro.data import Table, make_census
from repro.workload import Query, Workload

RTOL = 1e-10

CONFIGS = {
    "made": dict(),
    "resmade": dict(residual=True),
    "embedding": dict(embedding_threshold=60),
    "onehot": dict(value_encoding="onehot", residual=True),
}


@pytest.fixture(scope="module")
def table():
    return make_census(scale=0.02, seed=0)


@pytest.fixture(scope="module")
def workload(table):
    """Queries on three columns only (the other masks are ``None``), one of
    them unsatisfiable so a masked mass is exactly zero."""
    rng = np.random.default_rng(3)
    ages = table.column("age").distinct_values
    hours = table.column("hours_per_week").distinct_values
    queries = [Query.from_triples([("age", "<=", ages[rng.integers(ages.size)]),
                                   ("sex", "=", int(rng.integers(2))),
                                   ("hours_per_week", ">=",
                                    hours[rng.integers(hours.size)])])
               for _ in range(30)]
    queries.append(Query.from_triples([("age", ">", ages[-1])]))
    return Workload("three-columns", queries).label(table)


def _config(name, **overrides):
    return DuetConfig(hidden_sizes=(32, 32), batch_size=48, expand_coefficient=2,
                      query_batch_size=16, seed=0, **{**CONFIGS[name], **overrides})


def _twins(table, config, **trainer_kwargs):
    """Two identical trainers: one on the tape, one lowered."""
    twins = []
    for lowered in (False, True):
        model = DuetModel(table, config)
        trainer = DuetTrainer(model, table, config=config, seed=7, **trainer_kwargs)
        if not lowered:
            trainer._lowered = None
        twins.append(trainer)
    return twins


def _assert_same_gradients(tape, lowered):
    for (name, expected), actual in zip(tape.model.named_parameters(),
                                        lowered.model.parameters()):
        assert (expected.grad is None) == (actual.grad is None), name
        if expected.grad is None:
            continue
        scale = np.abs(expected.grad).max()
        np.testing.assert_allclose(actual.grad, expected.grad, rtol=RTOL,
                                   atol=RTOL * scale, err_msg=name)


def _step_both(tape, lowered, codes):
    return tape._tape_step(codes), lowered._lowered_step(codes)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_data_loss_gradients_match_the_tape(table, name):
    tape, lowered = _twins(table, _config(name))
    assert lowered._lowered is not None
    if name == "embedding":
        assert lowered.model._embedding_columns
    codes = table.code_matrix(np.arange(48))
    expected, actual = _step_both(tape, lowered, codes)
    _assert_same_gradients(tape, lowered)
    assert actual.data_loss == pytest.approx(expected.data_loss, rel=RTOL)
    assert actual.query_loss is None and expected.query_loss is None


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("margin", [1e3, 0.0], ids=["hinge-active", "hinge-inactive"])
def test_negative_replay_gradients_match_the_tape(table, name, margin):
    negatives = table.code_matrix(np.arange(500, 530))
    tape, lowered = _twins(table, _config(name), negative_codes=negatives)
    for trainer in (tape, lowered):
        trainer._negative_margin = margin
    codes = table.code_matrix(np.arange(48))
    expected, actual = _step_both(tape, lowered, codes)
    _assert_same_gradients(tape, lowered)
    assert actual.data_loss == pytest.approx(expected.data_loss, rel=RTOL)

    # The hinge really is (in)active: compare with the data term alone.
    alone, _ = _twins(table, _config(name))
    alone._tape_step(codes)
    moved = any(not np.allclose(a.grad, b.grad) for a, b in
                zip(alone.model.parameters(), lowered.model.parameters()))
    assert moved == (margin > 0)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_query_loss_gradients_match_the_tape(table, workload, name):
    config = _config(name, lambda_query=0.5)
    tape, lowered = _twins(table, config, training_workload=workload,
                           negative_codes=table.code_matrix(np.arange(500, 530)))
    assert lowered.hybrid
    _, _, intervals, _ = lowered._query_arrays
    assert intervals.columns.size < table.num_columns  # some column is free
    codes = table.code_matrix(np.arange(48))
    expected, actual = _step_both(tape, lowered, codes)
    _assert_same_gradients(tape, lowered)
    assert actual.query_loss == pytest.approx(expected.query_loss, rel=RTOL)
    assert actual.raw_qerror == pytest.approx(expected.raw_qerror, rel=RTOL)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_row_prefix_output_gradients_match_the_tape(table, workload, name, monkeypatch):
    """The output layer read by row prefixes (forward) and as a staircase
    (backward), which these small models only take with the threshold off."""
    assert _twins(table, _config(name))[1]._lowered._output_mask is not None
    monkeypatch.setattr(nn.made, "MIN_SKIPPED_PER_BLOCK", 0)
    config = _config(name, lambda_query=0.5)
    tape, lowered = _twins(table, config, training_workload=workload,
                           negative_codes=table.code_matrix(np.arange(500, 530)))
    assert lowered._lowered._output_mask is None
    for trainer in (tape, lowered):
        trainer._negative_margin = 1e3
    codes = table.code_matrix(np.arange(48))
    for _ in range(2):  # the second step reuses the zeroed gradient buffer
        expected, actual = _step_both(tape, lowered, codes)
        _assert_same_gradients(tape, lowered)
        tape.optimizer.step()
        lowered.optimizer.step()
    assert actual.data_loss == pytest.approx(expected.data_loss, rel=RTOL)
    assert actual.query_loss == pytest.approx(expected.query_loss, rel=RTOL)
    weight_grad = lowered.model.made.output_layer.weight.grad
    assert not weight_grad[lowered.model.made.output_layer.mask == 0].any()


def test_clipped_gradients_match_the_tape(table, workload):
    config = _config("resmade", lambda_query=0.5, grad_clip=0.05)
    tape, lowered = _twins(table, config, training_workload=workload)
    codes = table.code_matrix(np.arange(48))
    _step_both(tape, lowered, codes)
    norms = [nn.clip_grad_norm(trainer.model.parameters(), config.grad_clip)
             for trainer in (tape, lowered)]
    assert norms[0] > config.grad_clip  # the clip engaged
    assert norms[1] == pytest.approx(norms[0], rel=RTOL)
    _assert_same_gradients(tape, lowered)


def test_training_trajectory_matches_the_tape(table, workload):
    config = _config("embedding", lambda_query=0.5, residual=True)
    negatives = table.code_matrix(np.arange(600, 700))
    tape, lowered = _twins(table, config, training_workload=workload,
                           train_rows=np.arange(300), negative_codes=negatives)
    histories = [trainer.train(epochs=2) for trainer in (tape, lowered)]
    for expected, actual in zip(*(history.epochs for history in histories)):
        assert actual.data_loss == pytest.approx(expected.data_loss, rel=1e-8)
        assert actual.query_loss == pytest.approx(expected.query_loss, rel=1e-8)
        assert actual.raw_qerror == pytest.approx(expected.raw_qerror, rel=1e-8)
    for (name, expected), actual in zip(tape.model.named_parameters(),
                                        lowered.model.parameters()):
        np.testing.assert_allclose(actual.data, expected.data, rtol=1e-8,
                                   atol=1e-8, err_msg=name)


def test_throttle_runs_once_per_step(table):
    calls = []
    config = _config("made")
    trainer = DuetTrainer(DuetModel(table, config), table, config=config,
                          train_rows=np.arange(100),
                          throttle=lambda: calls.append(1))
    assert trainer._lowered is not None
    trainer.train(epochs=2)
    assert len(calls) == 2 * int(np.ceil(100 / config.batch_size))


def test_lowered_step_uses_no_serving_entry_point(table, workload, monkeypatch):
    """The traced benchmark wraps these; a training step must call none."""
    def forbidden(*args, **kwargs):
        raise AssertionError("serving entry point called during training")

    monkeypatch.setattr(CompiledDuetModel, "__init__", forbidden)
    monkeypatch.setattr(CompiledDuetModel, "selectivity_from_logits", forbidden)
    monkeypatch.setattr(nn.ForwardPlan, "run", forbidden)
    config = _config("made", lambda_query=0.5)
    trainer = DuetTrainer(DuetModel(table, config), table, workload, config,
                          train_rows=np.arange(100),
                          negative_codes=table.code_matrix(np.arange(10)))
    trainer.train(epochs=1)


def test_mpsn_models_stay_on_the_tape(table):
    config = DuetConfig(hidden_sizes=(16, 16), multi_predicate=True,
                        batch_size=48, epochs=1)
    trainer = DuetTrainer(DuetModel(table, config), table, config=config,
                          train_rows=np.arange(48))
    assert trainer._lowered is None
    with pytest.raises(ValueError):
        CompiledTrainStep(trainer.model)
    history = trainer.train(epochs=1)
    assert np.isfinite(history.epochs[0].data_loss)


def test_clone_copies_parameters_and_is_independent(table):
    config = _config("embedding")
    model = DuetModel(table, config)
    for parameter in model.parameters():
        parameter.grad = np.ones_like(parameter.data)
    twin = model.clone()
    assert twin.codec is not model.codec and twin.table is model.table
    for (name, ours), theirs in zip(model.named_parameters(), twin.parameters()):
        assert theirs is not ours and theirs.data is not ours.data, name
        np.testing.assert_array_equal(theirs.data, ours.data)
        assert theirs.grad is None
    # Mutating either side leaves the other unchanged.
    before = [parameter.data.copy() for parameter in model.parameters()]
    for parameter in twin.parameters():
        parameter.data += 1.0
    for parameter, saved in zip(model.parameters(), before):
        np.testing.assert_array_equal(parameter.data, saved)
    for parameter in model.parameters():
        parameter.data -= 1.0
    for parameter, saved in zip(twin.parameters(), before):
        np.testing.assert_array_equal(parameter.data, saved + 1.0)
    # Training the twin leaves the original's weights alone too.
    DuetTrainer(twin, table, config=config, train_rows=np.arange(48)).train(1)
    for parameter, saved in zip(model.parameters(), before):
        np.testing.assert_array_equal(parameter.data, saved - 1.0)


def test_clone_checks_domains(table):
    from repro.data import DomainGrowthError

    model = DuetModel(table, _config("made"))
    data = {column.name: column.distinct_values[column.codes]
            for column in table.columns}
    data["age"] = data["age"] + 1000
    with pytest.raises(DomainGrowthError):
        model.clone(Table.from_dict(table.name, data))
