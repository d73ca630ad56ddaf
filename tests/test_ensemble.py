import ast
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gplattice import (
    DisorderSpec,
    ExperimentPlan,
    RunRecord,
    build_lattice,
    dense_matrix,
    periodic_hamiltonian,
    replay_sample,
    run_plan,
)
from gplattice.ensemble import (
    overlap_deficit_scale,
    parse_config_text,
    plan_from_options,
    record_invariant_errors,
    summarize,
    theorem_coupling,
)
from gplattice import ensemble, gp

from coordinate_reference import flat_realization


# --- coupling schedule -------------------------------------------------------

def test_theorem_coupling_frozen_values():
    # computed by hand from U(L) = c / (L^d (1 + (log L)^(d - 2/d)) f_d(log L) log L)
    assert theorem_coupling(64, 1, 1.0) == pytest.approx(0.00432522314569813, rel=1e-14)
    assert theorem_coupling(32, 1, 1.0) == pytest.approx(0.009547855817356617, rel=1e-14)
    assert theorem_coupling(8, 2, 1.0) == pytest.approx(0.0029301376652394644, rel=1e-14)
    with pytest.raises(ValueError):
        theorem_coupling(1, 1, 1.0)


@given(
    half=st.integers(2, 2000),
    dim=st.sampled_from([1, 2, 3]),
    c=st.floats(0.1, 10.0),
)
def test_deficit_scale_identity(half, dim, c):
    # eta(L) collapses to sqrt(c / log L) exactly on the named schedule
    u = theorem_coupling(half, dim, c)
    eta = overlap_deficit_scale(half, dim, u)
    assert eta == pytest.approx(math.sqrt(c / math.log(half)), rel=1e-12)


# --- plan validation ---------------------------------------------------------

def base_plan(**overrides):
    opts = dict(experiment="condense", seed=3, l_grid=(4, 6), schedule=(0.05,), samples=3)
    opts.update(overrides)
    return ExperimentPlan(**opts)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(experiment="anneal"),
        dict(seed=-1),
        dict(l_grid=()),
        dict(l_grid=(8, 8)),
        dict(l_grid=(8, 4)),
        dict(l_grid=(0, 4)),
        dict(samples=0),
        dict(workers=0),
        dict(eig_count=0),
        dict(eig_count=1),
        dict(schedule="geometric"),
        dict(schedule=()),
        dict(schedule=(0.1, math.nan)),
        dict(schedule=(0.1, 0.2, 0.3)),
        dict(schedule=(-0.1,)),
        dict(schedule=(math.inf,)),
        dict(schedule=(math.nan,)),
        dict(schedule="theorem", l_grid=(1, 4)),
        dict(v_max=0.0),
        dict(v_max=-1.0),
        dict(v_max=math.nan),
        dict(v_max=math.inf),
        dict(dim=4),
        dict(dim=0),
        dict(c=-1.0),
        dict(c=float("nan")),
        dict(c=math.inf),
        dict(l_grid=(1, 4)),
        dict(experiment="shells", l_grid=(1, 4)),
        dict(experiment="spectrum", l_grid=(1, 2), eig_count=4),
        # 4097, 4225 and 4913 sites, past the dense limit of 4096
        dict(experiment="estimates", l_grid=(2048,)),
        dict(experiment="estimates", dim=2, l_grid=(32,)),
        dict(experiment="estimates", dim=3, l_grid=(8,)),
    ],
)
def test_plan_rejects_bad_options(overrides):
    with pytest.raises(ValueError):
        base_plan(**overrides)


def test_only_condense_and_shells_need_l_above_1():
    # the other experiments never read the coupling schedule
    for experiment in ("spectrum", "estimates"):
        plan = ExperimentPlan(experiment=experiment, seed=0, l_grid=(1,))
        assert replay_sample(plan, 0, 0).error is None, experiment


def test_coupling_for_each_schedule_form():
    broadcast = base_plan(schedule=(0.25,))
    assert broadcast.coupling_for(0) == broadcast.coupling_for(1) == 0.25
    per_l = base_plan(schedule=(0.5, 0.125))
    assert per_l.coupling_for(0) == 0.5 and per_l.coupling_for(1) == 0.125
    named = base_plan(schedule="theorem", c=2.0)
    assert named.coupling_for(1) == theorem_coupling(6, 1, 2.0)


def test_plan_disorder_spec_carries_seed():
    plan = base_plan(v_max=3.0)
    assert plan.disorder_spec() == DisorderSpec(v_max=3.0, master_seed=plan.seed)


# --- config round trip -------------------------------------------------------

# every field set, none to its default
EVERY_FIELD = ExperimentPlan(
    experiment="spectrum",
    seed=11,
    dim=2,
    l_grid=(3, 5),
    schedule=(0.25, 0.5),
    c=2.5,
    samples=7,
    out="elsewhere/run.jsonl",
    v_max=3.0,
    workers=3,
    eig_count=4,
)


def config_text(plan):
    """key=value lines for every field of a plan that is set."""
    lines = []
    for f in fields(plan):
        value = getattr(plan, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        if value is not None:
            lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "plan",
    [
        base_plan(),
        base_plan(schedule="theorem", l_grid=(16, 32), c=0.5, out="runs/a.jsonl"),
        base_plan(v_max=2.0, workers=4),
        base_plan(experiment="spectrum", dim=3, l_grid=(2, 3), eig_count=5),
        base_plan(experiment="estimates"),
        EVERY_FIELD,
    ],
)
def test_config_text_round_trips_plans(plan):
    options = parse_config_text(config_text(plan))
    assert plan_from_options(options) == plan


def test_every_field_plan_sets_every_field():
    # a new plan field must be added to EVERY_FIELD, so a field whose
    # annotation has no option parser fails the round trip above
    options = parse_config_text(config_text(EVERY_FIELD))
    assert list(options) == [f.name for f in fields(ExperimentPlan)]
    for f in fields(ExperimentPlan):
        assert getattr(EVERY_FIELD, f.name) != f.default, f.name


def test_estimator_grids_read_on_a_plan():
    # fixed grids and tolerances, not fields; the benchmark's replay reads
    # them off a plan
    plan = ExperimentPlan(experiment="estimates", seed=0)
    assert plan.box_sides == (4, 6, 8, 10)
    assert plan.wegner_widths == (0.02, 0.04, 0.08)
    assert plan.minami_widths == (0.005, 0.01, 0.02, 0.04)
    assert (plan.tol_eig, plan.tol_gp) == (1e-10, 1e-9)
    assert len(fields(ExperimentPlan)) == 11


def test_parse_config_skips_comments_and_blanks():
    text = "# a comment\n\nexperiment=condense\n  seed = 9 \n"
    assert parse_config_text(text) == {"experiment": "condense", "seed": "9"}


def test_parse_config_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_config_text("experiment=condense\nseed=1\nnot a pair\n")


def test_plan_from_options_requires_experiment_and_seed():
    with pytest.raises(ValueError, match="experiment"):
        plan_from_options({"seed": "1"})
    with pytest.raises(ValueError, match="seed"):
        plan_from_options({"experiment": "condense"})
    with pytest.raises(ValueError, match="unknown config key"):
        plan_from_options({"experiment": "condense", "seed": "1", "spice": "2"})


# --- record invariants -------------------------------------------------------

def healthy_record(**overrides):
    base = dict(
        master_seed=1,
        l_index=0,
        sample_index=0,
        dim=1,
        half_side=8,
        coupling=0.1,
        e0=0.5,
        e1=0.8,
        e_gp=0.52,
        ipr=0.3,
        kinetic=0.2,
        cert_valid=True,
        cert_margin=1e-4,
    )
    base.update(overrides)
    return RunRecord(**base)


def test_invariants_pass_on_healthy_record():
    assert record_invariant_errors(healthy_record()) == []


def test_invariants_flag_each_violation():
    assert any(
        "e0 > e_gp" in msg for msg in record_invariant_errors(healthy_record(e_gp=0.4))
    )
    # trial bound: e_gp must not exceed e0 + U * ipr
    bad_upper = healthy_record(e_gp=0.5 + 0.1 * 0.3 + 1e-3)
    assert any("trial bound" in msg for msg in record_invariant_errors(bad_upper))
    assert any(
        "kinetic" in msg for msg in record_invariant_errors(healthy_record(kinetic=0.6))
    )
    assert any(
        "certificate" in msg
        for msg in record_invariant_errors(healthy_record(cert_margin=-1e-3))
    )


def test_invariants_skip_error_records():
    broken = healthy_record(e_gp=-5.0, kinetic=99.0, error="solver gave up")
    assert record_invariant_errors(broken) == []


def test_invariant_slack_is_respected():
    barely = healthy_record(e_gp=0.5 + 0.1 * 0.3 + 5e-10)
    assert record_invariant_errors(barely) == []


# --- condensation runs -------------------------------------------------------

@pytest.fixture(scope="module")
def small_condense():
    plan = base_plan()
    return plan, run_plan(plan)


def test_condense_run_covers_every_slot(small_condense):
    plan, result = small_condense
    assert len(result.records) == len(plan.l_grid) * plan.samples
    slots = {(r.l_index, r.sample_index) for r in result.records}
    assert slots == {(l, s) for l in range(2) for s in range(3)}
    assert all(r.error is None for r in result.records)
    assert result.invariant_violations == []


def test_condense_records_carry_provenance_and_physics(small_condense):
    plan, result = small_condense
    for rec in result.records:
        assert rec.master_seed == plan.seed
        assert rec.half_side == plan.l_grid[rec.l_index]
        assert rec.coupling == plan.coupling_for(rec.l_index)
        assert rec.e0 <= rec.e_gp <= rec.e0 + rec.coupling * rec.ipr + 1e-9
        assert 0.0 <= rec.overlap <= 1.0 + 1e-10
        assert math.isfinite(rec.e_gp)


def test_records_carry_eigensolver_diagnostics(small_condense):
    plan, result = small_condense
    for rec in result.records:
        assert isinstance(rec.eig_applies, int) and rec.eig_applies > 0
        # 9 and 13 sites are filtered with a block of 6 fields
        assert 0 <= rec.eig_single_applies <= rec.eig_applies
        assert isinstance(rec.gp_applies, int) and rec.gp_applies > 0
        assert 0.0 < rec.eig_residual_max <= plan.tol_eig
        # the two stage times are parts of the sample's wall time
        assert 0.0 < rec.t_eig and 0.0 < rec.t_gp
        assert rec.t_eig + rec.t_gp < rec.wall_time
    # a torus of 5 sites is no wider than the block: one exact Rayleigh-Ritz
    # step on 5 fields and the confirming application of 2, nothing filtered
    rec = replay_sample(base_plan(l_grid=(2,), samples=1), 0, 0)
    assert rec.error is None
    assert rec.eig_applies == 7 and rec.eig_single_applies == 0
    # the dense path of `estimates` runs no iterative solver and no GP step
    rec = replay_sample(ExperimentPlan(experiment="estimates", seed=2, l_grid=(6,)), 0, 0)
    assert math.isnan(rec.eig_applies) and math.isnan(rec.eig_residual_max)
    assert math.isnan(rec.eig_single_applies)
    assert 0.0 < rec.t_eig < rec.wall_time and math.isnan(rec.t_gp)
    assert math.isnan(rec.gp_applies)


# summed gp_applies of samples 0-4 per L of the seed-0 trend grid, measured
# with the Newton CG stopped at g_tol / 8
TREND_HEAD_APPLIES = 1053


def test_trend_solves_stop_the_conjugate_gradients_at_the_gradient_test():
    # the Newton solves end at the tolerance the gradient test asks for; CG
    # stopped only by a relative residual floored at 1e-6 took 1632 here
    plan = ExperimentPlan(
        experiment="condense", seed=0, l_grid=(64, 128, 256, 512), schedule="theorem"
    )
    records = [
        replay_sample(plan, l_index, sample_index)
        for l_index in range(len(plan.l_grid))
        for sample_index in range(5)
    ]
    assert all(r.error is None and r.gp_grad_norm <= plan.tol_gp for r in records)
    assert sum(r.gp_applies for r in records) <= 1.05 * TREND_HEAD_APPLIES


def test_condense_summary_shape(small_condense):
    plan, result = small_condense
    summary = result.summary
    for header, rows in summary.series.values():
        assert [row[0] for row in rows] == list(plan.l_grid)
    assert summary.n_failed == 0
    text = summary.table()
    assert "[overlap]" in text and str(plan.l_grid[-1]) in text
    series = summary.series
    assert set(series) == {"overlap", "gap", "condensate_fraction"}
    header, rows = series["overlap"]
    assert header[0] == "half_side" and len(rows) == len(plan.l_grid)


def test_certificate_plan_has_no_invariant_violations():
    # with unsquared norms in the margin, two of these records broke the bound
    plan = ExperimentPlan("condense", seed=0, dim=2, l_grid=(8, 16), samples=2)
    result = run_plan(plan)
    assert all(r.error is None and r.cert_valid for r in result.records)
    assert result.invariant_violations == []


# samples on which an earlier minimizer, projected gradient descent alone,
# ran into its step cap ("minimizer stalled"): master seed 2022, L=64, sample
# 0 of the trend benchmark plan, and slot (L index 0, sample 184) of the
# acceptance trend plan
TREND_GRID = dict(experiment="condense", dim=1, l_grid=(64, 128, 256, 512), c=1.0)


@pytest.mark.parametrize(
    "seed, l_index, sample_index",
    [(2022, 0, 0), (0, 0, 184)],
    ids=["benchmark-seed-2022", "trend-plan-184"],
)
def test_formerly_stalled_samples_are_healthy(seed, l_index, sample_index):
    plan = ExperimentPlan(seed=seed, samples=sample_index + 1, **TREND_GRID)
    rec = replay_sample(plan, l_index, sample_index)
    assert rec.error is None and math.isfinite(rec.e_gp)
    assert rec.gp_grad_norm <= plan.tol_gp
    assert rec.cert_valid and rec.cert_margin >= 0.0
    assert record_invariant_errors(rec) == []


def test_minimizer_stall_becomes_an_error_record(monkeypatch):
    # slot (L index 1, sample 0) needs three trust-region steps, the others two
    monkeypatch.setattr(gp, "MAX_STEPS", 2)
    result = run_plan(base_plan())
    failed = [r for r in result.records if r.error is not None]
    assert [(r.l_index, r.sample_index) for r in failed] == [(1, 0)]
    assert failed[0].error.startswith("minimizer stalled")
    assert result.summary.n_failed == 1
    assert result.summary.n_ok == {4: 3, 6: 2}


@pytest.mark.parametrize(
    "coupling", [dict(c=1e150), dict(c=1e200), dict(schedule=(1e300,))],
    ids=["c-1e150", "c-1e200", "u-1e300"],
)
def test_overflowing_coupling_becomes_an_error_record(coupling):
    # the model's curvature overflows: to inf, so it predicts no decrease,
    # or to NaN, which is neither positive nor non-positive; both crashed
    # the run instead of ending the solve unconverged.  No overflow warning
    # leaves the solve, so a run with warnings as errors writes the record too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_plan(
            ExperimentPlan(experiment="condense", seed=0, l_grid=(4,), samples=1, **coupling)
        )
    [record] = result.records
    assert record.error.startswith("minimizer stalled")
    assert result.summary.n_failed == 1


@pytest.mark.parametrize(
    "experiment, source, l_grid, payload",
    [
        ("estimates", "condense", (3,), "7-entry window_counts"),
        ("shells", "spectrum", (8,), "1-entry field_four_norm_ratio"),
    ],
    ids=["estimates", "shells"],
)
def test_summarize_refuses_another_experiments_records_by_payload(
    experiment, source, l_grid, payload
):
    # another experiment's records under the same seed, dim and L grid fill
    # the plan's slots; the payload the plan reads refuses them by name
    # instead of a numpy error
    plan = ExperimentPlan(experiment=experiment, seed=2, l_grid=l_grid, samples=2)
    records = run_plan(replace(plan, experiment=source)).records
    message = f"records lack the {payload} payload this plan reads"
    with pytest.raises(ValueError, match=re.escape(message)):
        summarize(plan, records)


def test_summarize_refuses_records_that_are_not_a_distinct_slot_of_the_plan():
    # each foreign record stands in for the run's last one, so only its own
    # fields (or a repeated slot) can refuse it
    plan = ExperimentPlan(experiment="spectrum", seed=4, l_grid=(4, 6), samples=2)
    *records, last = run_plan(plan).records
    other_seed = run_plan(replace(plan, seed=5)).records
    for foreign in [
        other_seed[0],
        replace(last, l_index=-1),
        replace(last, l_index=2),
        replace(last, half_side=4),
        replace(last, sample_index=2),
        replace(last, dim=2),
        replace(records[0], error="injected failure"),
    ]:
        slot = (foreign.master_seed, foreign.l_index, foreign.sample_index)
        with pytest.raises(ValueError, match=re.escape(str(slot))):
            summarize(plan, records + [foreign])
    # missing slots are allowed
    assert summarize(plan, records[1:]).n_ok == {4: 1, 6: 1}


# one small plan per experiment, at the sizes of the smoke tests below
SMALL_PLANS = [
    base_plan(l_grid=(4,), samples=4),
    ExperimentPlan(
        experiment="spectrum", seed=11, l_grid=(5,), schedule=(0.0,), samples=4
    ),
    ExperimentPlan(
        experiment="estimates",
        seed=2,
        l_grid=(6,),
        schedule=(0.0,),
        samples=40,
        v_max=6.0,
    ),
    ExperimentPlan(
        experiment="shells", seed=7, l_grid=(32,), schedule=(0.0,), samples=2
    ),
]


def test_single_sample_replay_matches_run():
    for plan in SMALL_PLANS:
        result = run_plan(plan)
        rec = result.records[-1]
        replayed = replay_sample(plan, rec.l_index, rec.sample_index)
        assert replayed.content_key() == rec.content_key(), plan.experiment


def test_worker_count_does_not_change_records():
    for plan_serial in SMALL_PLANS:
        plan_pool = replace(plan_serial, workers=2)
        serial = run_plan(plan_serial)
        pooled = run_plan(plan_pool)
        assert Counter(r.content_key() for r in serial.records) == Counter(
            r.content_key() for r in pooled.records
        ), plan_serial.experiment
        np.testing.assert_equal(serial.summary.series, pooled.summary.series)
        np.testing.assert_equal(serial.summary.checks, pooled.summary.checks)


def test_worker_count_does_not_change_filtered_solves():
    # 289 sites are filtered, first in float32: the precision of each step
    # comes from the solve alone, so a pooled run gives the same records and
    # spends the same applications in each precision
    plan = ExperimentPlan(experiment="spectrum", seed=9, dim=2, l_grid=(8,), samples=4)
    serial = run_plan(plan)
    pooled = run_plan(replace(plan, workers=2))
    assert Counter(r.content_key() for r in serial.records) == Counter(
        r.content_key() for r in pooled.records
    )

    def work(result):
        return {
            (r.l_index, r.sample_index): (r.eig_applies, r.eig_single_applies)
            for r in result.records
        }

    assert work(serial) == work(pooled)
    assert all(single > 0 for _, single in work(serial).values())


@pytest.mark.parametrize("flip", [slice(None), slice(1, 2)], ids=["every column", "column 1"])
def test_records_do_not_read_eigenvector_signs(flip, monkeypatch):
    # eigenvectors come up to sign: the GP starts from |phi0|, the certificate,
    # the kinetic form and the ipr are even in phi0, and centers read |u|
    # (the spectrum L=64 sample's ipr reads the sign if summed as phi0**4:
    # numpy's x**4 and (-x)**4 can differ in the last bit)
    slots = [
        (base_plan(l_grid=(64,), schedule="theorem", samples=1), 0, 0),
        (base_plan(l_grid=(64,), schedule=(0.5,), samples=1), 0, 0),
        (base_plan(dim=2, l_grid=(8,), schedule="theorem", samples=1), 0, 0),
        (SMALL_PLANS[1], 0, 2),
        (ExperimentPlan(experiment="spectrum", seed=5, l_grid=(40,), samples=1), 0, 0),
        (ExperimentPlan(experiment="spectrum", seed=5, l_grid=(64,), samples=2), 0, 1),
        (SMALL_PLANS[3], 0, 1),
    ]
    want = [replay_sample(plan, *slot).content_key() for plan, *slot in slots]
    solve = ensemble.lowest_eigenpairs

    def flip_signs(*args, **kwargs):
        sol = solve(*args, **kwargs)
        signs = np.ones(sol.vectors.shape[1])
        signs[flip] = -1.0
        return replace(sol, vectors=sol.vectors * signs)

    monkeypatch.setattr(ensemble, "lowest_eigenpairs", flip_signs)
    got = [replay_sample(plan, *slot) for plan, *slot in slots]
    assert all(rec.error is None for rec in got)
    assert [rec.content_key() for rec in got] == want


@pytest.mark.parametrize(
    "plan, stage",
    [(SMALL_PLANS[2], "dense_matrix"), (SMALL_PLANS[3], "random_low_energy_field")],
    ids=["estimates", "shells"],
)
def test_failures_become_error_records(plan, stage, monkeypatch):
    real = getattr(ensemble, stage)
    calls = []

    def fail_on_second_call(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected failure")
        return real(*args)

    monkeypatch.setattr(ensemble, stage, fail_on_second_call)
    result = run_plan(plan)
    failed = [r for r in result.records if r.error is not None]
    assert [r.error for r in failed] == ["injected failure"]
    assert len(result.records) == len(plan.l_grid) * plan.samples
    assert all(r.wall_time > 0 for r in result.records)
    assert result.summary.n_failed == 1
    assert "failed samples: 1" in result.summary.table()


# --- other runners, smoke level ----------------------------------------------

def test_spectrum_runner_smoke():
    plan = ExperimentPlan(
        experiment="spectrum", seed=11, l_grid=(5,), schedule=(0.0,), samples=4
    )
    result = run_plan(plan)
    assert all(math.isfinite(r.gap) and r.gap >= 0 for r in result.records)
    assert all(math.isnan(r.e_gp) for r in result.records)
    assert all(r.center_dist >= 0 for r in result.records)
    series = result.summary.series
    assert set(series) == {"e0", "gap", "gap_law", "center_distance"}
    assert len(series["gap_law"][1]) == len(plan.gap_eta_grid)


def test_scaling_runner_smoke():
    # ground-energy scaling runs are spectrum runs over several sizes
    plan = ExperimentPlan(
        experiment="spectrum", seed=5, l_grid=(8, 16), schedule=(0.0,), samples=4
    )
    result = run_plan(plan)
    # the flatness test kinetic <= e0 is one of the record invariants
    assert result.invariant_violations == []

    # the ground-energy law: medians normalized by (log L)^(2/d) stay in a band
    header, rows = result.summary.series["e0"]
    assert header == ["half_side", "median", "q25", "q75", "normalized"]
    assert [row[0] for row in rows] == list(plan.l_grid)
    for half_side, med, q25, q75, norm in rows:
        assert q25 <= med <= q75
        assert norm == med * math.log(half_side) ** 2
    checks = result.summary.checks
    band_min, band_max = checks["normalized band (min, max)"]
    assert math.isfinite(band_min) and 0 < band_min == min(row[4] for row in rows)
    assert band_max == max(row[4] for row in rows)
    assert checks["normalized band ratio"] == band_max / band_min >= 1.0


def test_estimates_runner_smoke():
    plan = ExperimentPlan(
        experiment="estimates",
        seed=2,
        l_grid=(6,),
        schedule=(0.0,),
        samples=40,
        v_max=6.0,
    )
    result = run_plan(plan)
    assert all(r.wall_time > 0 for r in result.records)
    summary = result.summary
    assert summary.n_failed == 0
    _, wegner = summary.series["wegner"]
    assert {row[1] for row in wegner} == set(plan.wegner_widths)
    assert set(summary.checks["Minami log-log slope by L"]) == {6}
    for side, prob in summary.series["lifshitz"][1]:
        assert 0.0 <= prob <= 1.0
    assert len(summary.series["gap_law"][1]) == len(plan.gap_eta_grid)


def test_estimates_summary_of_an_all_failed_l_is_nan_and_quiet():
    # numpy warns on the mean of an empty slice; an L with no healthy
    # sample gets NaN rows without one
    plan = ExperimentPlan(
        experiment="estimates", seed=2, l_grid=(3, 4), samples=3, v_max=6.0
    )
    records = [
        replace(r, error="injected failure") if r.half_side == 4 else r
        for r in run_plan(plan).records
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = summarize(plan, records)
    assert summary.n_ok == {3: 3, 4: 0} and summary.n_failed == 3
    for name, value_columns in (("wegner", slice(2, 4)), ("minami", slice(2, 3))):
        rows = summary.series[name][1]
        for row in rows:
            values = np.array(row[value_columns], dtype=float)
            assert np.isnan(values).all() == (row[0] == 4), (name, row)
    slopes = summary.checks["Minami log-log slope by L"]
    assert math.isnan(slopes[4])


ESTIMATES_PLAN = ExperimentPlan(
    experiment="estimates", seed=0, l_grid=(4,), schedule=(0.0,), samples=1, v_max=6.0
)
ESTIMATES_CENTER = (4.0 * ESTIMATES_PLAN.dim + ESTIMATES_PLAN.v_max) / 2.0
# the flat potential 3 on the 9-site ring: its levels in [3, 7] come in pairs
FLAT_RING = periodic_hamiltonian(flat_realization(build_lattice(1, 4), 3.0))
FLAT_LEVELS = np.linalg.eigvalsh(dense_matrix(FLAT_RING)).tolist()


@st.composite
def spectra_and_widths(draw):
    """Ascending levels and window widths.

    Some levels sit exactly on window edges, and a level drawn twice repeats.
    """
    # a width of 2 |level - center| puts a window edge exactly on that level
    on_level = [2 * abs(v - ESTIMATES_CENTER) for v in FLAT_LEVELS if v != ESTIMATES_CENTER]
    width = st.one_of(st.floats(1e-3, 5.0), st.sampled_from(on_level))
    widths = draw(st.lists(width, min_size=1, max_size=8))
    grids = widths + list(ESTIMATES_PLAN.wegner_widths + ESTIMATES_PLAN.minami_widths)
    edges = [ESTIMATES_CENTER + s * w / 2 for w in grids for s in (-1, 1)]
    level = st.one_of(st.sampled_from(FLAT_LEVELS + edges), st.floats(0.0, 10.0))
    vals = np.sort(draw(st.lists(level, min_size=2, max_size=30)))
    return vals, tuple(widths)


@given(spectra_and_widths())
def test_estimates_window_counts_match_the_mask_definition(case):
    vals, widths = case

    def count(w):
        c = ESTIMATES_CENTER
        return int(((vals >= c - w / 2) & (vals <= c + w / 2)).sum())

    counts = ensemble._window_counts(vals, ESTIMATES_CENTER, widths)
    assert counts.tolist() == [count(w) for w in widths]
    plan = ESTIMATES_PLAN
    fields = ensemble._observe_estimates(plan, 0, 0, None, None, vals)
    n_wegner = len(plan.wegner_widths)
    wcounts = list(fields["window_counts"][:n_wegner])
    mhits = [c >= 2 for c in fields["window_counts"][n_wegner:]]
    assert wcounts == [count(w) for w in plan.wegner_widths]
    assert mhits == [count(w) >= 2 for w in plan.minami_widths]
    assert fields["gap"] == vals[1] - vals[0]


def fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports gplattice."""
    src = str(Path(ensemble.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip()


def test_pool_workers_start_with_numpy_random_imported():
    # numpy.random is imported lazily; a worker forked without it pays the
    # import on its first sample.  Each slot is evaluated in a worker, and
    # the results come back in slot order.  Two usable CPUs, so that the
    # pool runs on a one-CPU host too.
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from gplattice import ExperimentPlan\n"
        "from gplattice.ensemble import _parallel_map\n"
        "def probe(plan, index, sample):\n"
        "    return plan.seed, index, sample, 'numpy.random' in sys.modules\n"
        "plan = ExperimentPlan(experiment='spectrum', seed=9, workers=2)\n"
        "print(_parallel_map(probe, plan, [(0, 0), (1, 0), (0, 1), (2, 3)]))"
    )
    slots = [(0, 0), (1, 0), (0, 1), (2, 3)]
    assert fresh_interpreter(code) == str([(9, i, s, True) for i, s in slots])


@pytest.mark.parametrize(
    "workers, n_slots, cpus, started",
    [(8, 1, 8, []), (800, 40, 2, [2]), (3, 2, 4, [2]), (2, 1000, 2, [2]), (4, 5, 1, [])],
    ids=["one-slot", "cpu-bound", "slot-bound", "estimates-pool", "one-cpu"],
)
def test_pool_starts_no_more_workers_than_slots_or_cpus(
    workers, n_slots, cpus, started, monkeypatch
):
    # a fork pool starts all max_workers processes at the first submit; the
    # stand-in records its size and maps serially
    import concurrent.futures

    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    plan = ExperimentPlan(experiment="spectrum", seed=9, workers=workers)
    slots = [(0, sample) for sample in range(n_slots)]
    out = ensemble._parallel_map(lambda plan, index, sample: (index, sample), plan, slots)
    assert out == slots
    assert sizes == started


def test_import_leaves_the_process_pool_unloaded():
    # only a run with workers > 1 needs the pool and multiprocessing
    code = "import sys, gplattice\nprint('concurrent.futures.process' in sys.modules)"
    assert fresh_interpreter(code) == "False"


def test_estimates_runner_refuses_oversize_grids():
    # the torus of the largest L is above the dense limit; the plan is
    # refused before any sample runs
    with pytest.raises(ValueError, match="dense limit"):
        ExperimentPlan(
            experiment="estimates", seed=2, l_grid=(5000,), schedule=(0.0,), samples=1
        )


def test_shells_runner_smoke():
    plan = ExperimentPlan(
        experiment="shells", seed=7, l_grid=(32,), schedule=(0.0,), samples=2
    )
    result = run_plan(plan)
    summary = result.summary
    assert summary.n_failed == 0
    # eps = 0.02 has 0.02 * 32 < 1 and is skipped
    assert summary.checks["eps skipped (eps L < 1) by L"] == {32: [0.02]}
    _, four_norm = summary.series["four_norm_ratio"]
    _, sup_bound = summary.series["sup_bound"]
    assert {row[1] for row in four_norm} == {0.5, 0.1}
    for _, _, ratio_max, ratio_median, _, _ in four_norm:
        assert 0.0 < ratio_median <= ratio_max
    for _, _, sup_ratio_max in sup_bound:
        assert sup_ratio_max <= 1.0 + 1e-9
    assert summary.checks["annulus bound holds by (L, eps)"] == {
        (32, 0.5): True,
        (32, 0.1): True,
    }
    # every healthy sample gives one corpus ratio and one field per kept eps
    assert summary.n_ok == {32: 2}
    for rec in result.records:
        assert len(rec.field_four_norm_ratio) == len(rec.field_sup_ratio) == 2
        assert rec.field_annulus_ok == (True, True)
        assert rec.window_counts == ()
    assert summary.checks["corpus max within 3x trial scale by L"] == {32: True}


def test_shells_names_skipped_eps():
    plan = ExperimentPlan(
        experiment="shells", seed=0, l_grid=(8,), schedule=(0.0,), samples=1
    )
    summary = run_plan(plan).summary
    assert summary.checks["eps skipped (eps L < 1) by L"] == {8: [0.1, 0.02]}
    assert "eps skipped (eps L < 1) by L: {8: [0.1, 0.02]}" in summary.table()
    assert [row[1] for row in summary.series["four_norm_ratio"][1]] == [0.5]


def test_shells_flat_ground_state_at_l_49_is_healthy():
    # the nearly flat phi0 clips its band scale to 1/L, and (1/49) * 49
    # rounds to 0.9999999999999999; the clipped scale must still pass eps L >= 1
    plan = ExperimentPlan(
        experiment="shells", seed=0, l_grid=(49,), schedule=(0.0,), samples=1, v_max=1e-3
    )
    result = run_plan(plan)
    assert result.records[0].kinetic < (1 / 49) ** 2
    [row] = result.summary.series["corpus"][1]
    assert row[0] == 49 and all(math.isfinite(v) for v in row[1:])


def test_shells_summary_of_an_all_failed_l_has_no_rows_and_is_quiet():
    # an L with no healthy sample gets no shell rows and a NaN corpus row,
    # without a numpy warning
    plan = ExperimentPlan(experiment="shells", seed=7, l_grid=(8, 16), samples=2)
    records = run_plan(plan).records
    healthy_corpus = summarize(plan, records).series["corpus"][1]
    records = [replace(r, error="injected failure") if r.half_side == 16 else r for r in records]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = summarize(plan, records)
    assert summary.n_ok == {8: 2, 16: 0} and summary.n_failed == 2
    for name in ("four_norm_ratio", "sup_bound"):
        assert {row[0] for row in summary.series[name][1]} == {8}, name
    corpus = summary.series["corpus"][1]
    assert corpus[0] == healthy_corpus[0]
    half_side, corpus_max, corpus_median, trial_scale = corpus[1]
    assert half_side == 16 and math.isnan(corpus_max) and math.isnan(corpus_median)
    assert trial_scale == healthy_corpus[1][3]
    assert summary.checks["corpus max within 3x trial scale by L"][16] is False


def test_shells_strong_disorder_samples_are_healthy():
    # phi0's kinetic form exceeds 1 here (1.73, 1.05, 1.25 for samples 0, 1
    # and 3); its band scale follows it instead of clipping below 1
    plan = ExperimentPlan(experiment="shells", seed=0, l_grid=(32,), v_max=20, samples=4)
    result = run_plan(plan)
    assert [r.error for r in result.records] == [None] * 4
    assert result.summary.n_ok == {32: 4}
    assert result.summary.checks["corpus max within 3x trial scale by L"] == {32: True}


# --- public surface ------------------------------------------------------------

def test_package_namespace_keeps_what_callers_use():
    import gplattice

    used = {
        # the benchmark replays samples through these
        "DisorderSpec", "GPProblem", "Region", "build_lattice", "certificate",
        "dense_matrix", "dirichlet_energy", "gap_and_overlap", "localization_center",
        "lowest_eigenpairs", "minimize_gp", "periodic_hamiltonian", "provenance_stream",
        "restrict_hamiltonian", "sample_potential", "torus_distance", "write_records",
        # the README
        "ExperimentPlan", "run_plan", "main",
        # results, records, and replay
        "ExperimentResult", "RunRecord", "read_records", "EXPERIMENTS", "replay_sample",
    }
    assert used <= set(gplattice.__all__)
    for name in gplattice.__all__:
        assert hasattr(gplattice, name), name


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore belongs to the module that defines it
    package = Path(ensemble.__file__).parent
    crossings = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "gplattice"
            ):
                crossings += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert crossings == []
