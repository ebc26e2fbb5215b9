"""Every module imports at its top: no import inside a function, and no
`TYPE_CHECKING` block standing in for an import cycle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radmat"


def test_imports_sit_at_module_tops():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{path.name}:{node.lineno} imports inside {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
        offenders += [
            f"{path.name}:{node.lineno} uses TYPE_CHECKING"
            for node in ast.walk(tree)
            if "TYPE_CHECKING"
            in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
    assert not offenders, offenders
