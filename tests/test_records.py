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
        experiment="condense",
        dim=1,
        half_side=16,
        v_max=1.0,
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
        orth_norm=math.sqrt(1 - 0.999999999**2),
        center0=(4,),
        center1=(-3,),
        center_dist=7,
        gp_iterations=512,
        error=None,
        wall_time=1.25,
        gp_grad_norm=3.5e-10,
        eig_applies=1059,
        eig_residual_max=2.7416428968939688e-12,
        t_eig=0.0421,
        t_gp=0.0036,
        gp_applies=66,
        eig_single_applies=540,
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
    # one record of each experiment, and an error record: the filtered
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
    # every NaN reads back as math.nan, and float("nan") is another object
    # with NaN != NaN, so dataclass equality fails; the content key is the
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("pi0_norm", 0.999999999),
        ("gp_converged", True),
        ("gp_applies", None),
        ("t_gp", None),
        ("window_counts", None),
        ("experiment", None),
        ("v_max", None),
    ],
    ids=[
        "pi0_norm-added", "gp_converged-added", "no-gp_applies", "no-t_gp", "no-window_counts",
        "no-experiment", "no-v_max",
    ],
)
def test_line_of_another_schema_is_a_bad_line(field, value, tmp_path):
    # a records file is read by the version that wrote it: a line with a
    # field added (a value) or removed (None) is bad, and names the field
    rec = make_record()
    data = json.loads(rec.to_json())
    if value is None:
        del data[field]
    else:
        data[field] = value
    path = tmp_path / "run.jsonl"
    path.write_text(rec.to_json() + "\n" + json.dumps(data) + "\n")
    result = read_records(path)
    assert result.records == [rec]
    [(lineno, message)] = result.bad_lines
    assert lineno == 2
    assert f"{'missing' if value is None else 'unknown'} fields [{field!r}]" in message


def test_wall_time_excluded_from_content():
    a = make_record(wall_time=1.0)
    b = make_record(wall_time=99.0)
    assert a.content_dict() == b.content_dict()
    assert a.content_key() == b.content_key()
    assert "wall_time" not in a.content_dict()


def test_gp_grad_norm_is_a_diagnostic():
    rec = make_record(gp_grad_norm=9.87654321e-10)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and back.gp_grad_norm == 9.87654321e-10
    assert "gp_grad_norm" not in rec.content_dict()
    assert rec.content_key() == make_record(gp_grad_norm=1e-3).content_key()


def test_eigensolver_diagnostics_round_trip():
    rec = make_record(eig_applies=4213, eig_single_applies=840, eig_residual_max=8.123456789e-11)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec
    assert back.eig_applies == 4213 and back.eig_residual_max == 8.123456789e-11
    assert back.eig_single_applies == 840
    names = {"eig_applies", "eig_single_applies", "eig_residual_max"}
    assert not names & rec.content_dict().keys()
    other = make_record(eig_applies=7, eig_single_applies=0, eig_residual_max=1.0)
    assert rec.content_key() == other.content_key()


def test_filtered_solve_records_its_float32_share():
    # a d=2, L=16 torus (1089 sites) is filtered, first in float32, then in
    # float64 to the end of the solve
    plan = ExperimentPlan(experiment="spectrum", seed=5, dim=2, l_grid=(16,), samples=1)
    rec = replay_sample(plan, 0, 0)
    assert rec.error is None
    assert isinstance(rec.eig_single_applies, int)
    assert 0 < rec.eig_single_applies < rec.eig_applies


def test_stage_times_are_diagnostics():
    rec = make_record(t_eig=0.123456789, t_gp=9.87e-4)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and (back.t_eig, back.t_gp) == (0.123456789, 9.87e-4)
    assert not {"t_eig", "t_gp"} & rec.content_dict().keys()
    assert rec.content_key() == make_record(t_eig=5.0, t_gp=math.nan).content_key()


def test_gp_applies_is_a_diagnostic():
    rec = make_record(gp_applies=123)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and back.gp_applies == 123
    assert "gp_applies" not in rec.content_dict()
    assert rec.content_key() == make_record(gp_applies=math.nan).content_key()


def test_defaulted_record_equals_its_round_trip():
    # the NaN defaults are math.nan, and so is every NaN read back
    rec = RunRecord(
        master_seed=0, l_index=0, sample_index=0, experiment="spectrum", dim=1, half_side=4,
        v_max=1.0, coupling=0.0,
    )
    back = RunRecord.from_json(rec.to_json())
    assert back == rec and back.e0 is math.nan


def test_malformed_tuple_fields_reported(tmp_path):
    # a tuple field is a JSON list of its element type; a string is not
    # iterated, and a non-bool entry is not coerced to a bool
    data = json.loads(make_record().to_json())
    path = tmp_path / "run.jsonl"
    lines = [json.dumps(data)]
    for name, value in [
        ("center0", "12"),
        ("window_counts", "7"),
        ("field_annulus_ok", ["no"]),
        ("center1", [True]),
        ("window_counts", [7.0]),
        ("field_sup_ratio", [False]),
    ]:
        lines.append(json.dumps(dict(data, **{name: value})))
    lines.append(json.dumps(dict(data, window_counts=[7], field_sup_ratio=[1, 0.5, math.nan])))
    path.write_text("\n".join(lines) + "\n")
    result = read_records(path)
    assert [lineno for lineno, _ in result.bad_lines] == [2, 3, 4, 5, 6, 7]
    assert all("must be a list of" in message for _, message in result.bad_lines)
    last = result.records[-1]
    assert last.window_counts == (7,) and last.field_sup_ratio[:2] == (1.0, 0.5)
    assert type(last.field_sup_ratio[0]) is float and math.isnan(last.field_sup_ratio[2])


def test_mistyped_scalar_fields_reported(tmp_path):
    # a scalar field takes the JSON type of its annotation: no bool for an
    # int or a float, no number for a bool, a string or null for the error,
    # only a string for the experiment; the provenance slot is non-negative
    data = json.loads(make_record().to_json())
    path = tmp_path / "run.jsonl"
    lines = [json.dumps(data)]
    for name, value in [
        ("e0", "abc"),
        ("l_index", -1),
        ("l_index", True),
        ("gp_iterations", 2.5),
        ("cert_valid", 1),
        ("half_side", "4"),
        ("error", 5),
        ("experiment", None),
    ]:
        lines.append(json.dumps(dict(data, **{name: value})))
    lines.append(json.dumps(dict(data, e0=1, error="solver failed")))
    path.write_text("\n".join(lines) + "\n")
    result = read_records(path)
    assert [lineno for lineno, _ in result.bad_lines] == [2, 3, 4, 5, 6, 7, 8, 9]
    # an int in a float field is kept as it is, so the record round-trips
    last = result.records[-1]
    assert type(last.e0) is int and last.error == "solver failed"
    assert RunRecord.from_json(last.to_json()) == last


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


def test_a_line_nested_past_the_recursion_limit_is_a_bad_line(tmp_path):
    # json raises RecursionError, not a ValueError, on such a line
    path = tmp_path / "run.jsonl"
    good, deep = make_record().to_json(), "[" * 100_000 + "]" * 100_000
    path.write_text("\n".join([good, deep, good]) + "\n")
    result = read_records(path)
    assert len(result.records) == 2
    assert [lineno for lineno, _ in result.bad_lines] == [2]


def test_a_byte_that_is_not_utf8_costs_its_line_alone(tmp_path):
    # the bad byte costs its own line alone; the line after it is still read
    path = tmp_path / "run.jsonl"
    good = make_record().to_json().encode()
    path.write_bytes(b"\n".join([good, b'{"master_seed": \xff}', good]) + b"\n")
    result = read_records(path)
    assert len(result.records) == 2
    [(lineno, message)] = result.bad_lines
    assert lineno == 2 and "utf-8" in message


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
