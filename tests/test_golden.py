"""Record identity: one tiny plan per experiment against archived outputs.

The fixture holds each plan's records (payload fields, no wall time) and the
text of every ``.dat`` series it writes.  ``differences`` is the one walk of
a snapshot against its archive: every value of a record or a series row
(integers, booleans, strings, centers and floats alike) must lie within
``FLOAT_TOL`` of the archive, and a plan, record key, series, record or row
on one side only differs by an infinite |delta|.

    PYTHONPATH=src python tests/test_golden.py [--report]

is the only writer under ``tests/fixtures/``: it prints, for each golden
plan and for criterion 6's trend fixture, how many values differ from the
archive at all and the largest |delta| per field or series.  Without
``--report`` it then writes the current values whole, so a second run
leaves both files as they are.  Run it only when a change to the records is
intended, and say which fields moved.  With ``--report`` it writes nothing
and exits 1 when any value lies beyond its gate.
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
    "condense-3d": ExperimentPlan(
        experiment="condense", seed=4, dim=3, l_grid=(2, 3), samples=2
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


def series_rows(text: str) -> tuple[str, list[list[float]]]:
    header, *rows = text.splitlines()
    return header, [[float(tok) for tok in row.split()] for row in rows]


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_records_and_series_match_golden(name, tmp_path):
    archived = json.loads(GOLDEN.read_text()).get(name)
    diffs = differences(snapshot(GOLDEN_PLANS[name], tmp_path), archived)
    assert not beyond_gate(diffs), f"{name}: (values that differ, largest |delta|) {diffs}"


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


def delta(got, want) -> float:
    """|got - want|: 0 for equal values and for two NaNs, inf where none is defined."""
    if got == want or (got != got and want != want):
        return 0.0
    try:
        gap = abs(got - want)
    except TypeError:
        return math.inf
    return gap if gap == gap else math.inf


def differences(fresh: dict | None, archived: dict | None) -> dict:
    """(count, largest |delta|) per field or series, over the values that differ.

    Each entry of a tuple field and of a series row counts.  A plan, record
    key or series on one side only, and records or rows that do not line up,
    count once with an infinite delta.
    """
    diffs: dict = {}

    def note(key, gaps) -> None:
        gaps = [g for g in gaps if g > 0]
        if gaps:
            count, largest = diffs.get(key, (0, 0.0))
            diffs[key] = (count + len(gaps), max(largest, *gaps))

    def entries(got, want) -> list[float]:
        got, want = (list(v) if isinstance(v, (list, tuple)) else [v] for v in (got, want))
        return [delta(a, b) for a, b in zip(got, want)] if len(got) == len(want) else [math.inf]

    def both(got: dict, want: dict):
        """Each key of either side, with its two values; one-sided keys count."""
        for key in dict.fromkeys([*want, *got]):
            if key in got and key in want:
                yield key, got[key], want[key]
            else:
                note(key, [math.inf])

    if fresh is None or archived is None:
        note("plan", [math.inf])
        return diffs
    if len(fresh["records"]) != len(archived["records"]):
        note("records", [math.inf])
    for rec, ref in zip(fresh["records"], archived["records"]):
        for key, got, want in both(rec, ref):
            note(key, entries(got, want))
    for series, text, ref_text in both(fresh["series"], archived["series"]):
        header, rows = series_rows(text)
        ref_header, ref_rows = series_rows(ref_text)
        if header != ref_header or len(rows) != len(ref_rows):
            note(series, [math.inf])
        for row, ref_row in zip(rows, ref_rows):
            note(series, entries(row, ref_row))
    return diffs


def beyond_gate(diffs: dict) -> list[str]:
    """The fields or series of ``differences`` with a |delta| above ``FLOAT_TOL``."""
    return [key for key, (_, largest) in diffs.items() if largest > FLOAT_TOL]


def test_report_counts_every_value_that_differs():
    archived = {
        "records": [{"e0": 0.5, "gap": 0.25, "center0": [1, 2], "error": None, "old": None}],
        "series": {
            "run.gap.dat": "# half_side median\n4 0.25\n5 0.5\n",
            "run.old.dat": "# half_side median\n4 0.25\n",
        },
    }
    fresh = {
        "records": [{"e0": 0.5 + 1e-13, "gap": 0.25, "center0": (1, 3), "error": None}],
        "series": {"run.gap.dat": "# half_side median\n4 0.25\n5 0.5\n"},
    }
    diffs = differences(fresh, archived)
    assert diffs.keys() == {"e0", "center0", "old", "run.old.dat"}
    assert diffs["e0"][0] == 1 and 0 < diffs["e0"][1] < 2e-13
    assert diffs["center0"] == (1, 1)
    assert diffs["old"] == diffs["run.old.dat"] == (1, math.inf)
    assert beyond_gate(diffs) == ["center0", "old", "run.old.dat"]
    # a key or series on the fresh side only counts the same way
    assert differences(archived, fresh).keys() == diffs.keys()
    assert differences(fresh, None) == differences(None, archived) == {"plan": (1, math.inf)}
    assert differences(archived, archived) == {}


def show(name: str, diffs: dict, beyond: list[str]) -> bool:
    """Print one fixture entry's differences; True when some lie beyond its gate."""
    print(f"{name}: {sum(count for count, _ in diffs.values())} values differ")
    for key, (count, largest) in diffs.items():
        gate = " (beyond the gate)" if key in beyond else ""
        print(f"  {key}: {count} values differ, max |delta| {largest:.3g}{gate}")
    return bool(beyond)


if __name__ == "__main__":
    import sys
    import tempfile

    from test_acceptance import FIXTURE, TREND_PLAN, trend_fixture

    archive = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: snapshot(plan, Path(tmp)) for name, plan in GOLDEN_PLANS.items()}
    failed = False
    for name in dict.fromkeys([*data, *archive]):
        diffs = differences(data.get(name), archive.get(name))
        failed |= show(name, diffs, beyond_gate(diffs))
    trend, drifts, beyond = trend_fixture(run_plan(TREND_PLAN))
    failed |= show(f"{FIXTURE.name} (relative |delta|)", drifts, beyond)
    if sys.argv[1:] == ["--report"]:
        sys.exit(int(failed))
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    FIXTURE.write_text(json.dumps(trend, indent=2) + "\n")
    print(f"wrote {GOLDEN} and {FIXTURE}")
