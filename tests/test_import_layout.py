"""Every module imports at its top: no import inside a function, save
one named exception, and no `TYPE_CHECKING` block standing in for an
import cycle.  Every name a module other than `__init__` imports there is
used in it, so a deletion leaves no dead import behind.  Every dataclass
has a docstring: without one, `dataclasses` builds `__doc__` from
`inspect.signature` at import.

The exception: `vlm._http_answer` imports the standard library's HTTP
client, `http.client`, `urllib.error` and `urllib.request`, itself.  Only
an HTTP provider's request uses them, and at the top of `vlm` they would
load the HTTP, TLS and e-mail modules, and libssl and libcrypto, into
every `radmat` process, `calibrate` and mock-provider `pipeline` alike,
which never make a request.  No other function may import anything, and
that one may import nothing else."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radmat"
# (module file, function) -> the modules that function imports, the one
# exception to imports at module tops
FUNCTION_IMPORTS = {("vlm.py", "_http_answer"): ["http.client", "urllib.error", "urllib.request"]}


def test_imports_sit_at_module_tops():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                imported = sorted(
                    alias.name
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names
                )
                allowed = FUNCTION_IMPORTS.get((path.name, func.name), [])
                if imported != allowed:
                    offenders.append(f"{path.name}:{func.lineno} {func.name} imports {imported}")
        offenders += [
            f"{path.name}:{node.lineno} uses TYPE_CHECKING"
            for node in ast.walk(tree)
            if "TYPE_CHECKING"
            in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
    assert not offenders, offenders


def test_top_level_imports_are_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # the package root re-exports what it imports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line} imports {name} unused"
            for name, line in imported.items()
            if name not in loaded
        ]
    assert not unused, unused


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
