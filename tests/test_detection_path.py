"""One detection path: every chain path detects on a range-angle map that
`spectral.range_angle_at_doppler` beamforms from the frame's range-Doppler
map.  The static full-map beamformer `range_angle` stays a reference for
tests and benchmarks, and no other module of the package calls it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radmat"


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def test_only_spectral_calls_range_angle():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{call.lineno}"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and _called_name(call) == "range_angle"
        ]
    assert not offenders, offenders
