"""Every `radmat` command in README.md parses with the CLI's own parser,
so the README cannot name a flag that the CLI lacks."""

import re
import shlex
from pathlib import Path

import pytest

from radmat.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """The arguments of each `radmat` line of the README's sh blocks,
    continuation lines joined and comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("radmat ")]


COMMANDS = readme_commands()


def test_readme_commands_found():
    assert {argv[0] for argv in COMMANDS} == {
        "simulate", "calibrate", "extract", "identify", "pipeline",
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)
