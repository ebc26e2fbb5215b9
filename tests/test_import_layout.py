"""Every module imports at its top: no import inside a function, and no
`TYPE_CHECKING` block standing in for an import cycle.  Every dataclass
has a docstring: without one, `dataclasses` builds `__doc__` from
`inspect.signature` at import."""

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


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))


def test_dataclasses_have_docstrings():
    missing = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(d) for d in node.decorator_list)
        and ast.get_docstring(node) is None
    ]
    assert not missing, missing
