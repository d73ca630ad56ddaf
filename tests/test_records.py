import dataclasses
import json
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gplattice import (
    EXPERIMENTS,
    ExperimentPlan,
    RunRecord,
    read_records,
    replay_sample,
    write_records,
)
from gplattice.records import DIAGNOSTICS


def make_record(**overrides):
    base = dict(
        master_seed=7,
        l_index=0,
        sample_index=3,
        dim=1,
        half_side=16,
        coupling=0.125,
        e0=0.1 + 0.2,
        e1=1.0 / 3.0,
        e_gp=0.30000000000000004,
        overlap=0.999999999,
        gap=1e-3,
        ipr=0.25,
        kinetic=0.05,
        cert_valid=True,
        cert_margin=2e-7,
        pi0_norm=0.99,
        orth_norm=math.sqrt(1 - 0.99**2),
        center0=(4,),
        center1=(-3,),
        center_dist=7,
        gp_iterations=512,
        gp_converged=True,
        error=None,
        wall_time=1.25,
        gp_grad_norm=3.5e-10,
        eig_applies=1059,
        eig_residual_max=2.7416428968939688e-12,
        t_eig=0.0421,
        t_gp=0.0036,
        gp_applies=66,
    )
    base.update(overrides)
    return RunRecord(**base)


def test_json_round_trip_is_bit_exact():
    rec = make_record()
    back = RunRecord.from_json(rec.to_json())
    assert back == rec
    assert back.e0 == 0.1 + 0.2
    assert back.e1 == 1.0 / 3.0


def test_json_matches_a_deep_copied_dict(monkeypatch):
    # one record of each experiment, and an error record: the whole-space
    # solve of a 9-site torus cannot reach tol_eig = 1e-300
    plans = [
        ExperimentPlan(experiment=name, seed=1, l_grid=(4,))
        for name in EXPERIMENTS
    ]
    records = [replay_sample(plan, 0, 0) for plan in plans]
    monkeypatch.setattr(ExperimentPlan, "tol_eig", 1e-300)
    error_plan = ExperimentPlan(experiment="spectrum", seed=0, l_grid=(4,))
    records.append(replay_sample(error_plan, 0, 0))
    assert [r.error is None for r in records] == [True] * len(EXPERIMENTS) + [False]
    for rec in records:
        assert rec.to_json() == json.dumps(dataclasses.asdict(rec))
        want = {k: v for k, v in dataclasses.asdict(rec).items() if k not in DIAGNOSTICS}
        assert json.dumps(rec.content_dict()) == json.dumps(want)


def test_nan_fields_round_trip_via_content_key(tmp_path):
    rec = make_record(
        e1=math.nan,
        gap=math.nan,
        cert_valid=False,
        field_four_norm_ratio=(0.5, 0.6),
        field_sup_ratio=(0.25, float("nan")),
        field_annulus_ok=(True, False),
    )
    back = RunRecord.from_json(rec.to_json())
    # NaN != NaN, so dataclass equality cannot hold; the content key is the
    # intended comparison and maps NaN to a stable token, inside tuples too.
    assert back != rec
    assert back.content_key() == rec.content_key()
    assert ("gap", "nan") in back.content_key()
    assert ("field_sup_ratio", (0.25, "nan")) in back.content_key()

    path = tmp_path / "run.jsonl"
    write_records(path, [rec])
    [read] = read_records(path).records
    assert read.content_key() == rec.content_key()
    assert read.field_annulus_ok == (True, False)


# a shells line as written before the window counts and field statistics
# were record payload
PRE_PAYLOAD_LINE = (
    '{"master_seed": 0, "l_index": 0, "sample_index": 0, "dim": 1, "half_side": 8, '
    '"coupling": 0.0, "e0": 0.48111245515400536, "e1": NaN, "e_gp": NaN, '
    '"overlap": NaN, "gap": NaN, "ipr": 0.08608800804453312, '
    '"kinetic": 0.03084319948771897, "cert_valid": false, "cert_margin": NaN, '
    '"pi0_norm": NaN, "orth_norm": NaN, "center0": [-2], "center1": [], '
    '"center_dist": -1, "gp_iterations": 0, "gp_converged": false, "error": null, '
    '"wall_time": 0.01913531400350621, "gp_grad_norm": NaN, "eig_applies": 18, '
    '"eig_residual_max": 2.4047347260703216e-15, "t_eig": 0.0009479639993514866, '
    '"t_gp": NaN}'
)


def test_line_without_the_later_payload_reads_back_empty(tmp_path):
    rec = RunRecord.from_json(PRE_PAYLOAD_LINE)
    assert rec.e0 == 0.48111245515400536 and rec.center0 == (-2,)
    assert rec.window_counts == ()
    assert rec.field_four_norm_ratio == rec.field_sup_ratio == rec.field_annulus_ok == ()
    # the same text again; == would see the defaulted gp_applies NaN differ
    # from the NaN json reads back
    assert RunRecord.from_json(rec.to_json()).to_json() == rec.to_json()

    # a line lacking any older payload field is still refused
    path = tmp_path / "old.jsonl"
    data = json.loads(PRE_PAYLOAD_LINE)
    lines = [PRE_PAYLOAD_LINE]
    for name in ("e0", "kinetic", "center1", "error"):
        lines.append(json.dumps({k: v for k, v in data.items() if k != name}))
    path.write_text("\n".join(lines) + "\n")
    result = read_records(path)
    assert len(result.records) == 1
    assert [lineno for lineno, _ in result.bad_lines] == [2, 3, 4, 5]
    assert all("missing fields" in message for _, message in result.bad_lines)


def test_wall_time_excluded_from_content():
    a = make_record(wall_time=1.0)
    b = make_record(wall_time=99.0)
    assert a.content_dict() == b.content_dict()
    assert a.content_key() == b.content_key()
    assert "wall_time" not in a.content_dict()


def test_gp_grad_norm_is_a_diagnostic(tmp_path):
    rec = make_record(gp_grad_norm=9.87654321e-10)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and back.gp_grad_norm == 9.87654321e-10
    assert "gp_grad_norm" not in rec.content_dict()
    assert rec.content_key() == make_record(gp_grad_norm=1e-3).content_key()

    # a stream written before the field existed still loads, with NaN
    path = tmp_path / "old.jsonl"
    data = json.loads(rec.to_json())
    del data["gp_grad_norm"]
    path.write_text(json.dumps(data) + "\n")
    result = read_records(path)
    assert result.bad_lines == []
    assert math.isnan(result.records[0].gp_grad_norm)
    assert result.records[0].content_key() == rec.content_key()


def test_eigensolver_diagnostics_round_trip(tmp_path):
    rec = make_record(eig_applies=4213, eig_residual_max=8.123456789e-11)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec
    assert back.eig_applies == 4213 and back.eig_residual_max == 8.123456789e-11
    assert not {"eig_applies", "eig_residual_max"} & rec.content_dict().keys()
    assert rec.content_key() == make_record(eig_applies=7, eig_residual_max=1.0).content_key()

    # a line written before the solver diagnostics existed reads back NaN
    data = json.loads(rec.to_json())
    del data["eig_applies"], data["eig_residual_max"]
    old = json.dumps(data)
    data.pop("gp_grad_norm")
    older = json.dumps(data)
    path = tmp_path / "old.jsonl"
    path.write_text(old + "\n" + older + "\n")
    result = read_records(path)
    assert result.bad_lines == []
    for back in result.records:
        assert math.isnan(back.eig_applies) and math.isnan(back.eig_residual_max)
        assert back.content_key() == rec.content_key()
    assert math.isnan(result.records[1].gp_grad_norm)


def test_stage_times_are_diagnostics(tmp_path):
    rec = make_record(t_eig=0.123456789, t_gp=9.87e-4)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and (back.t_eig, back.t_gp) == (0.123456789, 9.87e-4)
    assert not {"t_eig", "t_gp"} & rec.content_dict().keys()
    assert rec.content_key() == make_record(t_eig=5.0, t_gp=math.nan).content_key()

    # a line written before the stage times existed reads back NaN
    data = json.loads(rec.to_json())
    del data["t_eig"], data["t_gp"]
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(data) + "\n")
    result = read_records(path)
    assert result.bad_lines == []
    back = result.records[0]
    assert math.isnan(back.t_eig) and math.isnan(back.t_gp)
    assert back.content_key() == rec.content_key()


def test_gp_applies_is_a_diagnostic(tmp_path):
    rec = make_record(gp_applies=123)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and back.gp_applies == 123
    assert "gp_applies" not in rec.content_dict()
    assert rec.content_key() == make_record(gp_applies=math.nan).content_key()

    # a line written before the count existed reads back NaN
    data = json.loads(rec.to_json())
    del data["gp_applies"]
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(data) + "\n")
    result = read_records(path)
    assert result.bad_lines == []
    assert math.isnan(result.records[0].gp_applies)
    assert result.records[0].content_key() == rec.content_key()


def test_write_then_read(tmp_path):
    path = tmp_path / "run.jsonl"
    recs = [make_record(sample_index=i) for i in range(5)]
    write_records(path, recs)
    result = read_records(path)
    assert result.bad_lines == []
    assert result.records == recs


def test_append_mode(tmp_path):
    path = tmp_path / "run.jsonl"
    write_records(path, [make_record(sample_index=0)])
    write_records(path, [make_record(sample_index=1)], append=True)
    result = read_records(path)
    assert [r.sample_index for r in result.records] == [0, 1]


def test_bad_lines_reported_with_numbers(tmp_path):
    path = tmp_path / "run.jsonl"
    good = make_record()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(good.to_json() + "\n")
        handle.write("{ not json\n")
        handle.write("\n")  # blank lines are skipped silently
        handle.write('{"master_seed": 1}\n')
        handle.write(good.to_json() + "\n")
        handle.write("[1, 2]\n")  # valid JSON, but not an object
        handle.write("null\n")
    result = read_records(path)
    assert len(result.records) == 2
    assert [lineno for lineno, _ in result.bad_lines] == [2, 4, 6, 7]
    assert "missing fields" in result.bad_lines[1][1]
    assert "not a JSON object" in result.bad_lines[2][1]


def test_unknown_field_rejected():
    rec = make_record()
    line = rec.to_json()
    doctored = line[:-1] + ', "surprise": 1}'
    with pytest.raises(ValueError, match="unknown fields"):
        RunRecord.from_json(doctored)


def test_error_record_keeps_message():
    rec = make_record(error="minimizer stalled at projected gradient 8.539e-08")
    back = RunRecord.from_json(rec.to_json())
    assert back.error == rec.error


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    e0=finite,
    gap=st.one_of(finite, st.just(math.nan)),
    sample=st.integers(0, 10**6),
    center=st.tuples(st.integers(-50, 50)),
)
def test_random_records_round_trip(e0, gap, sample, center):
    rec = make_record(e0=e0, gap=gap, sample_index=sample, center0=center)
    back = RunRecord.from_json(rec.to_json())
    assert back.content_key() == rec.content_key()


def test_content_keys_support_multiset_comparison():
    batch_a = [make_record(sample_index=i) for i in range(4)]
    batch_b = list(reversed([make_record(sample_index=i) for i in range(4)]))
    assert Counter(r.content_key() for r in batch_a) == Counter(
        r.content_key() for r in batch_b
    )
