"""Command line front end.

The experiment is the first argument; ``gplattice --help`` lists them, each
with its help line from the pipeline table.
Options come from an optional key=value config file plus flags, both named by
``ExperimentPlan`` fields; flags win.  Each flag's help text is its field's
``help`` metadata.
A master seed is mandatory so no run is ever silently irreproducible.

Outputs, when --out is given: the records file itself (one JSON object per
line), a plain-text summary next to it, and one whitespace-delimited .dat
file per summary series, all sharing the records file's stem.

Exit status is 0 only when every record satisfied the built-in invariants.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .ensemble import (
    EXPERIMENTS,
    PIPELINES,
    ExperimentPlan,
    ExperimentResult,
    parse_config_text,
    plan_from_options,
    run_plan,
)
from .records import write_records


def build_parser() -> argparse.ArgumentParser:
    """The experiment, then ``--config`` and one ``--<name>`` per plan field.

    The experiments and their help lines come from the pipeline table, the
    flags and theirs from ``ExperimentPlan``'s fields, in field order.
    Flags take strings: the plan parses and checks a flag's value exactly as
    it does the same key in a config file.
    """
    epilog = "experiments:\n" + "\n".join(
        f"  {name:<10} {pipeline.help}" for name, pipeline in PIPELINES.items()
    )
    parser = argparse.ArgumentParser(
        prog="gplattice",
        description="ensemble experiments for a discrete random Schroedinger\n"
        "operator with a weak on-site interaction",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="see the list below")
    parser.add_argument(
        "--config", help="key=value file; command line flags override its entries"
    )
    for option in fields(ExperimentPlan):
        if option.name != "experiment":
            parser.add_argument(
                "--" + option.name.replace("_", "-"), help=option.metadata["help"]
            )
    return parser


def _merge_options(args: argparse.Namespace) -> dict[str, str]:
    options = parse_config_text(Path(args.config).read_text()) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if value is not None}
    flags.pop("config", None)
    return options | flags  # the experiment and the flags win


def _write_series(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = ["# " + " ".join(header)]
    for row in rows:
        lines.append(" ".join(f"{float(v):.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_outputs(result: ExperimentResult) -> list[Path]:
    """Write records, summary text, and series files; returns written paths."""
    out = result.plan.out
    if out is None:
        return []
    records_path = Path(out)
    records_path.parent.mkdir(parents=True, exist_ok=True)
    write_records(records_path, result.records)
    written = [records_path]
    stem = records_path.with_suffix("") if records_path.suffix else records_path
    summary_path = Path(f"{stem}.summary.txt")
    summary_path.write_text(result.summary.table() + "\n")
    written.append(summary_path)
    for name, (header, rows) in result.summary.series.items():
        series_path = Path(f"{stem}.{name}.dat")
        _write_series(series_path, header, rows)
        written.append(series_path)
    return written


def _check_out(out: str | None) -> None:
    """Refuse a records path that cannot be written, before any sample runs."""
    if out is None:
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(f"--out names a directory: {out}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan = plan_from_options(_merge_options(args))
        _check_out(plan.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_plan(plan)
    print(result.summary.table())
    for path in write_outputs(result):
        print(f"wrote {path}")
    if result.invariant_violations:
        for message in result.invariant_violations:
            print(f"invariant violation: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
