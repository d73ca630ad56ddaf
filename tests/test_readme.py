"""The README's examples run as written.

Each fenced ``python`` block is executed, and each ``gplattice ...`` command
line of a ``sh`` block is parsed into a plan (without running it), so an
example that names a removed option or field fails here.  A command's test
is named by its experiment and its ordinal among that experiment's examples,
so editing an example's options keeps its name.
"""

import re
import shlex
from pathlib import Path

import pytest

from gplattice.cli import _merge_options, build_parser
from gplattice.ensemble import plan_from_options

ROOT = Path(__file__).parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
PYTHON_BLOCKS = [code for lang, code in BLOCKS if lang == "python"]
COMMANDS = [
    line.strip()
    for lang, code in BLOCKS
    if lang == "sh"
    for line in code.replace("\\\n", " ").splitlines()
    if line.startswith("gplattice ")
]
SUBCOMMANDS = [shlex.split(command)[1] for command in COMMANDS]
COMMAND_IDS = [
    f"{name}-{SUBCOMMANDS[: i + 1].count(name)}" for i, name in enumerate(SUBCOMMANDS)
]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 2 and len(COMMANDS) >= 6


@pytest.mark.parametrize("code", PYTHON_BLOCKS)
def test_python_block_runs(code, capsys):
    exec(compile(code, "README.md", "exec"), {})
    capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_command_line_builds_a_plan(command, monkeypatch):
    # config paths in the README are relative to the repository root
    monkeypatch.chdir(ROOT)
    argv = shlex.split(command, comments=True)[1:]
    plan = plan_from_options(_merge_options(build_parser().parse_args(argv)))
    assert plan.experiment == argv[0]
