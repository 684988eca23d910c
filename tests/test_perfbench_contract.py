"""What the traced benchmark reads of the program must exist.

``perfbench/spans.py`` wraps the public calls listed in ``_TIMED_CALLS``,
and ``perfbench/run.py``'s ``layer_metrics`` reads the served plan's
stages.  A rename of any of them makes a traced run exit with an uncaught
exception, so this test fails first.

The benchmark also relies on the shape of a served pass: it calls
``QueryCodec.translate_batch`` exactly once, with exactly the pass's
queries, and ends in ``CompiledDuetModel.selectivity_from_logits``.
perfbench's ``MissCounter`` counts cache misses at the first call (a pass
that bypassed it would read as a 100% hit ratio and fail the run's
validity check), and the traced run opens and closes each pass at the two.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np

from repro.core import (
    CompiledDuetModel,
    DuetConfig,
    DuetEstimator,
    DuetModel,
    QueryCodec,
    ServingConfig,
)
from repro.data import make_census
from repro.serving import EstimationService, QueryKeyEncoder
from repro.workload import make_random_workload

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_call_exists():
    timed = _load_spans()._TIMED_CALLS
    assert timed
    for owner, attribute, span in timed:
        assert callable(getattr(owner, attribute, None)), (
            f"{owner.__name__}.{attribute} (span {span}) is gone")


def test_served_plan_stages_expose_what_layer_metrics_reads():
    table = make_census(scale=0.01, seed=0)
    model = DuetModel(table, DuetConfig(hidden_sizes=(16, 16), seed=0))
    plan = CompiledDuetModel(model).made_plan
    assert plan.stages
    for stage in plan.stages:
        assert isinstance(stage.weight, np.ndarray)
        assert stage.bias is None or isinstance(stage.bias, np.ndarray)
        assert stage.weight.shape == (stage.in_features, stage.out_features)


def _record_passes(monkeypatch) -> list:
    """Wrap the two calls that bound a pass; returns the event log."""
    events: list = []
    translate = QueryCodec.translate_batch
    select = CompiledDuetModel.selectivity_from_logits

    def traced_translate(codec, queries, *args, **kwargs):
        events.append(("translate", threading.get_ident(), list(queries)))
        return translate(codec, queries, *args, **kwargs)

    def traced_select(plan, logits, *args, **kwargs):
        selectivity = select(plan, logits, *args, **kwargs)
        events.append(("select", threading.get_ident(), len(selectivity)))
        return selectivity

    monkeypatch.setattr(QueryCodec, "translate_batch", traced_translate)
    monkeypatch.setattr(CompiledDuetModel, "selectivity_from_logits", traced_select)
    return events


def _passes(events) -> list:
    """Pair the log into passes: translate, then select, on one thread."""
    assert len(events) % 2 == 0
    passes = []
    for opened, closed in zip(events[::2], events[1::2]):
        assert opened[0] == "translate" and closed[0] == "select"
        assert opened[1] == closed[1]
        assert closed[2] == len(opened[2])
        passes.append(opened[2])
    return passes


def test_a_served_pass_translates_its_queries_once_and_ends_in_the_mask(monkeypatch):
    table = make_census(scale=0.01, seed=0)
    model = DuetModel(table, DuetConfig(hidden_sizes=(16, 16), seed=0))
    keys = QueryKeyEncoder(table)
    distinct = {keys.key(query): query for query in make_random_workload(
        table, num_queries=60, seed=3, label=False).queries}
    queries = list(distinct.values())
    events = _record_passes(monkeypatch)
    config = ServingConfig(max_wait_ms=1.0)
    with EstimationService(DuetEstimator(model), config) as service:
        # Concurrent single-query requests, batched on the batcher thread.
        threads = [threading.Thread(target=lambda part: [service.estimate(q)
                                                         for q in part],
                                    args=(queries[start::3],))
                   for start in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served = _passes(events)
        assert sorted(map(id, (q for group in served for q in group))) == sorted(
            map(id, queries))
        # Cache hits reach no pass: the miss counter sees only misses.
        del events[:]
        for query in queries[:10]:
            service.estimate(query)
        assert events == []
        # The offline batch path: one pass over exactly the missed queries.
        fresh = make_random_workload(table, num_queries=5, seed=99, label=False).queries
        fresh = [query for query in fresh if keys.key(query) not in distinct]
        assert fresh
        service.estimate_batch(queries[:4] + fresh)
        assert [[id(q) for q in group] for group in _passes(events)] == [
            [id(q) for q in fresh]]
