"""What the traced benchmark reads of the program must exist.

``perfbench/spans.py`` wraps the public calls listed in ``_TIMED_CALLS``,
and ``perfbench/run.py``'s ``layer_metrics`` reads the served plan's
stages.  A rename of any of them makes a traced run exit with an uncaught
exception, so this test fails first.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.core import CompiledDuetModel, DuetConfig, DuetModel
from repro.data import make_census

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
