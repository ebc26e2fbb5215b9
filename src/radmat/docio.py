"""Reading and writing of the JSON documents used by the toolchain.

Every non-binary artifact (scenes, calibration profiles, feature records,
material stores, fusion contexts, decisions) is a JSON document with
explicit units in field names.  Serialization is canonical (sorted keys,
two-space indent, trailing newline) so outputs are byte-stable.
"""

import json
from pathlib import Path

from .errors import DocumentError


def canonical_bytes(document: dict) -> bytes:
    """Serialize a document to canonical, byte-stable JSON."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_document(path, document: dict) -> None:
    Path(path).write_bytes(canonical_bytes(document))


def read_document(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top-level value must be an object")
    return doc


def require(document: dict, key: str, context: str = "document"):
    """Fetch a mandatory key, raising DocumentError when absent."""
    if key not in document:
        raise DocumentError(f"{context}: missing required field '{key}'")
    return document[key]
