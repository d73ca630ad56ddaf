"""Record identity: one tiny plan per experiment against archived outputs.

The fixture holds each plan's records (payload fields, no wall time) and the
text of every ``.dat`` series it writes.  Integers, booleans, strings and
centers must match exactly, floats within ``FLOAT_TOL``.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

only when a change to the records is intended, and say which fields moved.
Regeneration keeps every archived value that still matches, rewrites only
the moved ones and prints them, so a second run leaves the fixture as is.
With ``--report`` it writes nothing and prints, per plan and per field or
series, how many values differ from the fixture at all (within
``FLOAT_TOL`` or not) and the largest |delta|.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from gplattice import ExperimentPlan, ExperimentResult, read_records, run_plan
from gplattice.cli import write_outputs
from gplattice.ensemble import summarize

GOLDEN = Path(__file__).parent / "fixtures" / "golden_records.json"
FLOAT_TOL = 1e-12

GOLDEN_PLANS = {
    "condense": ExperimentPlan(
        experiment="condense", seed=3, l_grid=(4, 6), schedule=(0.05,), samples=3
    ),
    "spectrum": ExperimentPlan(
        experiment="spectrum", seed=11, l_grid=(5,), schedule=(0.0,), samples=4
    ),
    # the ground-energy scaling grid: its e0 series spans two sizes
    "scaling": ExperimentPlan(
        experiment="spectrum", seed=5, l_grid=(8, 16), schedule=(0.0,), samples=4
    ),
    "estimates": ExperimentPlan(
        experiment="estimates",
        seed=2,
        l_grid=(6,),
        schedule=(0.0,),
        samples=40,
        v_max=6.0,
    ),
    "shells": ExperimentPlan(
        experiment="shells", seed=7, l_grid=(32,), schedule=(0.0,), samples=2
    ),
    "certificate-2d": ExperimentPlan(
        experiment="condense", seed=0, dim=2, l_grid=(8, 16), samples=2
    ),
}


def snapshot(plan: ExperimentPlan, tmp: Path) -> dict:
    """Records in provenance order and the text of each written series."""
    result = run_plan(replace(plan, out=str(tmp / "run.jsonl")))
    paths = write_outputs(result)
    records = sorted(result.records, key=lambda r: (r.l_index, r.sample_index))
    return {
        "records": [r.content_dict() for r in records],
        "series": {p.name: p.read_text() for p in paths if p.suffix == ".dat"},
    }


def same_value(got, want) -> bool:
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        return abs(got - want) <= FLOAT_TOL
    if isinstance(want, list):
        return list(got) == want
    return got == want


def series_rows(text: str) -> tuple[str, list[list[float]]]:
    header, *rows = text.splitlines()
    return header, [[float(tok) for tok in row.split()] for row in rows]


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_records_and_series_match_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = snapshot(GOLDEN_PLANS[name], tmp_path)

    assert len(got["records"]) == len(want["records"])
    for rec, ref in zip(got["records"], want["records"]):
        assert rec.keys() == ref.keys()
        moved = [k for k in ref if not same_value(rec[k], ref[k])]
        assert not moved, f"{name} {ref['l_index'], ref['sample_index']}: {moved}"

    assert got["series"].keys() == want["series"].keys()
    for series, text in want["series"].items():
        header, rows = series_rows(got["series"][series])
        ref_header, ref_rows = series_rows(text)
        assert header == ref_header
        assert len(rows) == len(ref_rows)
        for row, ref_row in zip(rows, ref_rows):
            assert all(same_value(a, b) for a, b in zip(row, ref_row)), series


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_summary_text_shows_every_series(name, tmp_path):
    # the summary text and the .dat files come from the same series
    plan = replace(GOLDEN_PLANS[name], out=str(tmp_path / "run.jsonl"))
    paths = write_outputs(run_plan(plan))
    text = (tmp_path / "run.summary.txt").read_text()
    blocks = {}
    for block in text.split("\n\n"):
        title, header, *rows = block.splitlines()
        if title.startswith("["):
            blocks[title.strip("[]")] = (header.split()[1:], len(rows))
    dat_paths = [p for p in paths if p.suffix == ".dat"]
    assert len(blocks) == len(dat_paths)
    for path in dat_paths:
        header, *rows = path.read_text().splitlines()
        series = path.name[len("run.") : -len(".dat")]
        assert blocks[series] == (header.split()[1:], len(rows)), series


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_summary_rebuilds_from_the_records_file(name, tmp_path):
    # a summary is a function of the plan and the records: summarizing the
    # records read back from the file reproduces the run's own output
    plan = replace(GOLDEN_PLANS[name], out=str(tmp_path / "run.jsonl"))
    run_paths = write_outputs(run_plan(plan))
    read = read_records(tmp_path / "run.jsonl")
    assert read.bad_lines == []
    rebuilt = replace(plan, out=str(tmp_path / "rebuilt.jsonl"))
    result = ExperimentResult(rebuilt, read.records, summarize(plan, read.records), [])
    rebuilt_paths = write_outputs(result)
    assert [p.name.replace("run.", "", 1) for p in run_paths] == [
        p.name.replace("rebuilt.", "", 1) for p in rebuilt_paths
    ]
    for run_path, rebuilt_path in zip(run_paths, rebuilt_paths):
        assert rebuilt_path.read_bytes() == run_path.read_bytes(), run_path.name


def merge_snapshot(fresh: dict, archived: dict | None, name: str) -> list[tuple]:
    """Put archived values back into ``fresh`` wherever they still match.

    Returns the (plan, record or series, field or row) triples that moved.
    """
    if archived is None or len(archived["records"]) != len(fresh["records"]):
        return [(name, "records", "all")]
    moved = []
    for rec, ref in zip(fresh["records"], archived["records"]):
        for key, value in rec.items():
            if key in ref and same_value(value, ref[key]):
                rec[key] = ref[key]
            else:
                moved.append((name, (rec["l_index"], rec["sample_index"]), key))
    for series, text in fresh["series"].items():
        lines = text.splitlines(keepends=True)
        old = archived["series"].get(series, "").splitlines(keepends=True)
        if len(old) != len(lines) or old[:1] != lines[:1]:
            moved.append((name, series, "all"))
            continue
        for row, (line, ref) in enumerate(zip(lines[1:], old[1:]), start=1):
            got, want = line.split(), ref.split()
            if len(got) == len(want) and all(
                same_value(float(a), float(b)) for a, b in zip(got, want)
            ):
                lines[row] = ref
            else:
                moved.append((name, series, row))
        fresh["series"][series] = "".join(lines)
    return moved


def test_regeneration_keeps_values_that_still_match():
    archived = {
        "records": [{"l_index": 0, "sample_index": 1, "e0": 0.5, "gap": 0.25}],
        "series": {"run.gap.dat": "# half_side median\n4 0.25\n5 0.5\n"},
    }
    fresh = {
        "records": [{"l_index": 0, "sample_index": 1, "e0": 0.5 + 1e-13, "gap": 0.26}],
        "series": {"run.gap.dat": "# half_side median\n4 0.2500000000001\n5 0.6\n"},
    }
    moved = merge_snapshot(fresh, archived, "plan")
    assert moved == [("plan", (0, 1), "gap"), ("plan", "run.gap.dat", 2)]
    assert fresh["records"][0] == {"l_index": 0, "sample_index": 1, "e0": 0.5, "gap": 0.26}
    assert fresh["series"]["run.gap.dat"] == "# half_side median\n4 0.25\n5 0.6\n"


def delta(got, want) -> float:
    """|got - want|: 0 for equal values and for two NaNs, inf where none is defined."""
    if got == want or (got != got and want != want):
        return 0.0
    try:
        gap = abs(got - want)
    except TypeError:
        return math.inf
    return gap if gap == gap else math.inf


def differences(fresh: dict, archived: dict) -> tuple[int, dict]:
    """Records that differ at all, and (count, largest |delta|) per field or series.

    Each entry of a tuple field and of a series row counts; records or rows
    that do not line up count once, with an infinite delta.
    """
    diffs: dict = {}

    def note(key, gaps) -> bool:
        gaps = [g for g in gaps if g > 0]
        if gaps:
            count, largest = diffs.get(key, (0, 0.0))
            diffs[key] = (count + len(gaps), max(largest, *gaps))
        return bool(gaps)

    def entries(got, want) -> list[float]:
        got, want = (list(v) if isinstance(v, (list, tuple)) else [v] for v in (got, want))
        return [delta(a, b) for a, b in zip(got, want)] if len(got) == len(want) else [math.inf]

    if len(fresh["records"]) != len(archived["records"]):
        note("records", [math.inf])
    moved = 0
    for rec, ref in zip(fresh["records"], archived["records"]):
        moved += any([note(key, entries(rec.get(key), ref[key])) for key in ref])
    for series, text in fresh["series"].items():
        header, rows = series_rows(text)
        ref_header, ref_rows = series_rows(archived["series"].get(series, "\n"))
        if header != ref_header or len(rows) != len(ref_rows):
            note(series, [math.inf])
        for row, ref_row in zip(rows, ref_rows):
            note(series, entries(row, ref_row))
    return moved, diffs


def test_report_counts_every_value_that_differs():
    archived = {
        "records": [{"e0": 0.5, "gap": 0.25, "center0": [1, 2], "error": None}],
        "series": {"run.gap.dat": "# half_side median\n4 0.25\n5 0.5\n"},
    }
    fresh = {
        "records": [{"e0": 0.5 + 1e-13, "gap": 0.25, "center0": (1, 3), "error": None}],
        "series": {"run.gap.dat": "# half_side median\n4 0.25\n5 0.5\n"},
    }
    moved, diffs = differences(fresh, archived)
    assert moved == 1
    assert diffs.keys() == {"e0", "center0"}
    assert diffs["e0"][0] == 1 and 0 < diffs["e0"][1] < 2e-13
    assert diffs["center0"] == (1, 1)
    assert differences(archived, archived) == (0, {})


if __name__ == "__main__":
    import sys
    import tempfile

    archive = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: snapshot(plan, Path(tmp)) for name, plan in GOLDEN_PLANS.items()}
    if sys.argv[1:] == ["--report"]:
        for name, snap in data.items():
            moved, diffs = differences(snap, archive[name])
            print(f"{name}: {moved} of {len(snap['records'])} records differ")
            for key, (count, largest) in diffs.items():
                print(f"  {key}: {count} values differ, max |delta| {largest:.3g}")
        sys.exit()
    moved = [
        entry
        for name, snap in data.items()
        for entry in merge_snapshot(snap, archive.get(name), name)
    ]
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    for entry in moved:
        print("moved:", *entry)
    print(f"wrote {GOLDEN} ({len(moved)} moved)")
