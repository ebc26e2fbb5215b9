"""A malformed outside document becomes an error class in one place:
`docio.malformed`.  No other module catches the exceptions that a bad
document raises while it is indexed, typed or validated, and no reader
of outside documents casts a value itself: `docio.typed` types them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radmat"
DOCUMENT_EXCEPTIONS = {
    "KeyError", "TypeError", "ValueError", "OverflowError", "DomainError", "DocumentError",
    "JSONDecodeError",
}
# modules that read outside documents, and the casts that would type a value by another rule
READERS = ("cube_io.py", "knowledge.py", "vlm.py")
CASTS = {"float", "int", "str", "complex", "bool"}


def _names(node):
    """The exception names an `except` clause's type expression mentions."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        return [name for item in node.elts for name in _names(item)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def test_only_docio_maps_document_exceptions():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "docio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{handler.lineno} catches {name}"
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            for name in _names(handler.type)
            if name in DOCUMENT_EXCEPTIONS
        ]
    assert not offenders, offenders


def test_only_docio_types_document_values():
    offenders = []
    for name in READERS:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        offenders += [
            f"{name}:{call.lineno} calls {call.func.id}"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in CASTS
        ]
    assert not offenders, offenders
