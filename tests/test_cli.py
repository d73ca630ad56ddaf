import math

import pytest

from gplattice import main, read_records
from gplattice.cli import build_parser
from gplattice.ensemble import EXPERIMENTS


def test_every_experiment_has_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    text = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in text


def test_missing_seed_is_a_usage_error(capsys):
    code = main(["condense", "--l-grid", "4", "--schedule", "0.1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["anneal", "--seed", "1"])


def test_bad_config_line_reported(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nl_grid=4\noops\n")
    code = main(["condense", "--config", str(cfg)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nl_grid=4\nschedule=0.1\nsamples=2\n")
    out = tmp_path / "run.jsonl"
    code = main(
        ["condense", "--config", str(cfg), "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    records = read_records(out).records
    assert all(r.master_seed == 9 for r in records)
    capsys.readouterr()


def test_end_to_end_run_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "runs" / "demo.jsonl"
    code = main(
        [
            "condense",
            "--seed",
            "4",
            "--l-grid",
            "4,6",
            "--schedule",
            "0.05",
            "--samples",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "med overlap" in captured.out
    assert captured.err == ""

    result = read_records(out)
    assert result.bad_lines == []
    assert len(result.records) == 4
    assert all(r.gp_converged for r in result.records)

    stem = out.with_suffix("")
    summary = stem.with_name(stem.name + ".summary.txt")
    assert "failed samples: 0" in summary.read_text()
    for series in ("overlap", "gap", "condensate_fraction"):
        dat = stem.with_name(f"{stem.name}.{series}.dat")
        lines = dat.read_text().splitlines()
        assert lines[0].startswith("# half_side")
        assert len(lines) == 3  # header plus one row per L
        for token in lines[1].split():
            assert math.isfinite(float(token))
    assert f"wrote {out}" in captured.out


def test_spectrum_subcommand_runs(tmp_path, capsys):
    out = tmp_path / "spec.jsonl"
    code = main(
        [
            "spectrum",
            "--seed",
            "2",
            "--l-grid",
            "5",
            "--schedule",
            "0",
            "--samples",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert read_records(out).bad_lines == []
    assert (tmp_path / "spec.gap_law.dat").exists()
