import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from gplattice import ExperimentPlan, main, read_records, run_plan
from gplattice.cli import _EXPERIMENT_HELP, _FLAG_HELP, _merge_options, build_parser
from gplattice.ensemble import EXPERIMENTS, parse_config_text, plan_from_options

CONFIGS = Path(__file__).parent.parent / "configs"

# the standing runs behind the paper's figures, one config file each
STANDING_PLANS = {
    "condensation_trend": ExperimentPlan(
        experiment="condense",
        seed=0,
        dim=1,
        l_grid=(64, 128, 256, 512),
        schedule="theorem",
        c=1.0,
        samples=200,
        workers=8,
        out="runs/condensation_trend.jsonl",
    ),
    "condensation_trend_2d": ExperimentPlan(
        experiment="condense",
        seed=0,
        dim=2,
        l_grid=(8, 16, 32, 64),
        schedule="theorem",
        c=1.0,
        samples=200,
        workers=8,
        out="runs/condensation_trend_2d.jsonl",
    ),
    "condensation_trend_3d": ExperimentPlan(
        experiment="condense",
        seed=0,
        dim=3,
        l_grid=(4, 6, 8, 12),
        schedule="theorem",
        c=1.0,
        samples=200,
        workers=8,
        out="runs/condensation_trend_3d.jsonl",
    ),
    "groundstate_scaling": ExperimentPlan(
        experiment="spectrum",
        seed=0,
        dim=1,
        l_grid=(32, 64, 128, 256, 512),
        samples=200,
        workers=8,
        out="runs/groundstate_scaling.jsonl",
    ),
    "spectral_estimates": ExperimentPlan(
        experiment="estimates",
        seed=0,
        dim=1,
        l_grid=(32,),
        samples=10_000,
        v_max=6.0,
        workers=8,
        out="runs/spectral_estimates.jsonl",
    ),
    "shell_calibration": ExperimentPlan(
        experiment="shells",
        seed=0,
        dim=1,
        l_grid=(128, 512),
        samples=50,
        workers=8,
        out="runs/shell_calibration.jsonl",
    ),
}


def test_every_experiment_has_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    text = capsys.readouterr().out
    assert list(_EXPERIMENT_HELP) == list(EXPERIMENTS)
    for name, line in _EXPERIMENT_HELP.items():
        assert re.search(rf"^  {name} +{re.escape(line)}$", text, re.MULTILINE), name


def test_missing_seed_is_a_usage_error(capsys):
    code = main(["condense", "--l-grid", "4", "--schedule", "0.1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_subcommand_rejected(capsys):
    # scaling runs are spectrum runs, so "scaling" names no experiment either
    for name in ("anneal", "scaling"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--seed", "0"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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
    assert "[overlap]" in captured.out
    assert captured.err == ""

    result = read_records(out)
    assert result.bad_lines == []
    assert len(result.records) == 4
    assert all(math.isfinite(r.e_gp) for r in result.records)

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


def test_configs_are_the_standing_plans():
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(STANDING_PLANS)
    for name, expected in STANDING_PLANS.items():
        options = parse_config_text((CONFIGS / f"{name}.cfg").read_text())
        options["experiment"] = expected.experiment
        assert plan_from_options(options) == expected, name


def test_config_usage_comments_name_their_plan():
    usage = re.compile(r"^#   gplattice (\S+) --config configs/(\S+)$", re.MULTILINE)
    for name, plan in STANDING_PLANS.items():
        comments = usage.findall((CONFIGS / f"{name}.cfg").read_text())
        assert comments == [(plan.experiment, f"{name}.cfg")], name


@pytest.mark.parametrize("name", sorted(STANDING_PLANS))
def test_config_runs_through_the_cli(name, tmp_path, capsys):
    out = tmp_path / f"{name}.jsonl"
    argv = [STANDING_PLANS[name].experiment, "--config", str(CONFIGS / f"{name}.cfg")]
    argv += ["--samples", "1", "--l-grid", "8", "--workers", "1", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(read_records(out).records) == 1


def test_every_flag_reaches_the_plan():
    # one value per flag, none of them the plan default; a flag added to the
    # parser must be added here too
    flags = {
        "seed": ("5", 5),
        "dim": ("2", 2),
        "l_grid": ("3,5", (3, 5)),
        "schedule": ("0.25,0.5", (0.25, 0.5)),
        "c": ("2.5", 2.5),
        "samples": ("7", 7),
        "out": ("elsewhere/run.jsonl", "elsewhere/run.jsonl"),
        "v_max": ("3", 3.0),
        "workers": ("3", 3),
        "eig_count": ("4", 4),
    }
    options = {
        a.dest: a.option_strings[0]
        for a in build_parser()._actions
        if a.option_strings and a.dest != "help"
    }
    assert set(options) == set(flags) | {"config"}

    argv = ["spectrum"]
    for dest, (text, _) in flags.items():
        argv += [options[dest], text]
    plan = plan_from_options(_merge_options(build_parser().parse_args(argv)))
    default = ExperimentPlan(experiment="spectrum", seed=0)
    for dest, (_, value) in flags.items():
        assert getattr(plan, dest) == value != getattr(default, dest), dest


def test_every_plan_field_but_the_subcommand_is_a_flag():
    assert set(_FLAG_HELP) == {f.name for f in fields(ExperimentPlan)} - {"experiment"}


def test_oversize_estimates_plan_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "big.jsonl"
    argv = ["estimates", "--seed", "1", "--l-grid", "5000", "--schedule", "0"]
    code = main(argv + ["--samples", "1", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--dim", "4"], ["--dim", "0"], ["--c", "-1"]])
def test_bad_dim_or_c_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "bad.jsonl"
    argv = ["condense", "--seed", "0", "--l-grid", "4", "--samples", "1"]
    code = main(argv + flags + ["--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "x"],
        ["--seed", "0", "--v-max", "inf"],
        ["--seed", "0", "--eig-count", "1"],
    ],
)
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, flags):
    # a flag's value is checked by the plan, as the same config entry is
    out = tmp_path / "bad.jsonl"
    code = main(["condense", "--l-grid", "4", "--samples", "1", "--out", str(out)] + flags)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_config_key_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_run(plan):
        raise AssertionError("a sample ran")

    monkeypatch.setattr("gplattice.cli.run_plan", no_run)
    config = tmp_path / "run.cfg"
    config.write_text("seed=1\nl_grid=4\n# the last value must not win silently\nseed=2\n")
    assert main(["condense", "--config", str(config)]) == 2
    assert "error: config line 4: duplicate key 'seed'" in capsys.readouterr().err


def test_invariant_violation_exits_with_1_after_writing_outputs(tmp_path, capsys, monkeypatch):
    def one_violation(plan):
        return replace(run_plan(plan), invariant_violations=["injected: e1 < e0"])

    monkeypatch.setattr("gplattice.cli.run_plan", one_violation)
    out = tmp_path / "run.jsonl"
    argv = ["spectrum", "--seed", "0", "--l-grid", "4", "--samples", "1"]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "invariant violation: injected: e1 < e0\n"
    assert len(read_records(out).records) == 1
    assert (tmp_path / "run.summary.txt").exists()
    assert f"wrote {out}" in captured.out


# former plan options: the shell scales are a fixed grid, the tolerances are
# constants, and the potential is always uniform on [0, v_max]
REMOVED_OPTIONS = {
    "eps_grid": "0.5",
    "tol_eig": "1e-8",
    "tol_gp": "1e-7",
    "distribution": "uniform",
    "p": "0.25",
    "levels": "0,1.5",
}


@pytest.mark.parametrize("key", list(REMOVED_OPTIONS))
def test_removed_config_key_is_a_usage_error(key, tmp_path, capsys, monkeypatch):
    def no_run(plan):
        raise AssertionError("a sample ran")

    monkeypatch.setattr("gplattice.cli.run_plan", no_run)
    value = REMOVED_OPTIONS[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"seed=1\nl_grid=8\n{key}={value}\n")
    assert main(["shells", "--config", str(config)]) == 2
    assert f"error: unknown config key {key!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["shells", "--seed", "1", "--l-grid", "8", "--" + key.replace("_", "-"), value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_condense_with_l_below_2_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x" / "r.jsonl"
    argv = ["condense", "--seed", "1", "--l-grid", "1,2", "--schedule", "0.1"]
    code = main(argv + ["--samples", "2", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_run(plan):
        raise AssertionError("a sample ran")

    monkeypatch.setattr("gplattice.cli.run_plan", no_run)
    argv = ["condense", "--seed", "0", "--l-grid", "4", "--samples", "1"]
    code = main(argv + ["--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_plan_value_in_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=1\nl_grid=4\nschedule=0\nsamples=0\n")
    out = tmp_path / "bad.jsonl"
    code = main(["estimates", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
