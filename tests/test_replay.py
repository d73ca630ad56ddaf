"""The benchmark's traced replay reproduces the pipeline's records.

``perfbench/measure.py`` replays every sample of a timed round serially
through the public module functions, with a span around each call, and
refuses the round unless the replayed values equal the records bit for bit.
This test runs that replay on small plans of the benchmark's three
experiments, so a change that makes the two paths drift shows here first.
"""

import math
import sys
from pathlib import Path

import pytest

from gplattice import ExperimentPlan, run_plan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PLANS = {
    "condense": ExperimentPlan(experiment="condense", seed=3, l_grid=(8, 16), samples=3),
    # 129 sites: the eigensolve filters, in float32 first, where the plan
    # above solves on the whole space
    "condense-filtered": ExperimentPlan(experiment="condense", seed=3, l_grid=(64,), samples=2),
    "spectrum-2d": ExperimentPlan(
        experiment="spectrum", seed=5, dim=2, l_grid=(6,), eig_count=2, samples=3
    ),
    "estimates": ExperimentPlan(experiment="estimates", seed=2, l_grid=(8,), samples=6),
}


@pytest.fixture(scope="module")
def measure():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import measure
    finally:
        sys.path.remove(str(PERFBENCH))
    return measure


def same(got, want) -> bool:
    return all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want))


@pytest.mark.parametrize("name", PLANS)
def test_traced_replay_matches_run_plan(measure, name):
    plan = PLANS[name]
    result = run_plan(plan)
    replayed, lifshitz = measure.Replay(measure.Tracer()).plan(plan)
    assert len(replayed) == len(result.records)
    for rec in result.records:
        got = replayed[rec.l_index, rec.sample_index]
        if rec.error is not None:
            assert got is None
        else:
            assert same(got, (rec.e0, rec.e1, rec.e_gp, rec.gp_iterations)), rec
    if plan.experiment == "estimates":
        assert lifshitz == result.summary.series["lifshitz"][1]
    else:
        assert lifshitz is None
