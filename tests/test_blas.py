"""BLAS thread blocks: one thread while a scheduler runs, all while training."""

import threading

import numpy as np
import pytest

from repro.core import DuetConfig, DuetModel, DuetTrainer
from repro.data import Table
from repro.nn import blas
from repro.serving import MicroBatcher
from repro.workload import Query

DEFAULT = blas.DEFAULT_THREADS


def current_threads() -> int:
    return blas._CONTROLS[0]() if blas._CONTROLS is not None else DEFAULT


@pytest.fixture(autouse=True)
def no_blocks_from_other_tests():
    """A service another test left open holds a serving block; set it aside."""
    with blas._lock:
        saved = dict(blas._open)
        blas._open.update(single=0, all=0)
        blas._update()
    yield
    with blas._lock:
        blas._open.update(saved)
        blas._update()


def test_no_open_block_keeps_the_starting_count():
    assert current_threads() == DEFAULT


def test_training_inside_a_serving_block_gets_the_starting_count_back():
    with blas.single_threaded():
        assert current_threads() == 1
        with blas.all_threads():
            assert current_threads() == DEFAULT
        assert current_threads() == 1
    assert current_threads() == DEFAULT


def test_overlapping_blocks_on_two_threads_restore_only_when_both_close():
    first_open, second_open, first_closed = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with blas.single_threaded():
            first_open.set()
            second_open.wait()
        first_closed.set()

    def second():
        first_open.wait()
        with blas.single_threaded():
            second_open.set()
            first_closed.wait()
            seen["after the first closed"] = current_threads()
        seen["after both closed"] = current_threads()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == {"after the first closed": 1, "after both closed": DEFAULT}


def test_batcher_passes_run_on_one_thread_until_close():
    counts = []

    def runner(queries):
        counts.append(current_threads())
        return [0.0] * len(queries), None

    with MicroBatcher(runner, max_batch_size=4, max_wait_ms=0.0) as batcher:
        for value in range(3):
            batcher.estimate(Query.from_triples([("a", "=", value)]))
    assert counts == [1, 1, 1]
    assert current_threads() == DEFAULT


def test_training_beside_a_running_batcher_uses_the_starting_count():
    rng = np.random.default_rng(0)
    table = Table.from_dict("tiny", {"a": rng.integers(0, 5, size=200),
                                     "b": rng.integers(0, 3, size=200)})
    config = DuetConfig(hidden_sizes=(16,), epochs=1, batch_size=64,
                        expand_coefficient=1, seed=0)
    trainer = DuetTrainer(DuetModel(table, config), table, config=config)
    counts = []
    train_epoch = trainer.train_epoch

    def recording_epoch(*args, **kwargs):
        counts.append(current_threads())
        return train_epoch(*args, **kwargs)

    trainer.train_epoch = recording_epoch
    with MicroBatcher(lambda queries: ([0.0] * len(queries), None)) as batcher:
        batcher.estimate(Query.from_triples([("a", "=", 1)]))
        assert current_threads() == 1
        trainer.train(epochs=1)
        assert current_threads() == 1
    assert counts == [DEFAULT]
