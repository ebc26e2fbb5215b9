"""Every `radmat` command in README.md parses with the CLI's own parser,
so the README cannot name a flag that the CLI lacks, and the README's
scene document loads and simulates."""

import json
import re
import shlex
from pathlib import Path

import pytest

from radmat import ArrayGeometry, synthesize_frame
from radmat.cli import build_parser
from radmat.cube_io import load_scene
from radmat.docio import write_document

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


@pytest.mark.parametrize("array", [{}, {"spacing_m": 0.002}], ids=["default", "spacing_m"])
def test_readme_scene_loads_and_simulates(tmp_path, array):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (doc,) = [json.loads(block) for block in blocks if '"chirp"' in block]
    doc["array"].update(array)
    path = tmp_path / "scene.json"
    write_document(path, doc)
    targets, config, geometry, noise, seed = load_scene(path)
    # the documented default spacing is a quarter wavelength
    assert geometry == ArrayGeometry(8, array.get("spacing_m", config.wavelength_m / 4.0))
    cube = synthesize_frame(targets, config, geometry, noise, seed)
    assert cube.samples.shape == (8, config.chirps_per_frame, config.samples_per_chirp)
