"""Reading and writing of the JSON documents used by the toolchain.

Every non-binary artifact (scenes, calibration profiles, feature records,
material stores, fusion contexts, decisions) is a JSON document with
explicit units in field names.  Serialization is canonical (sorted keys,
two-space indent, trailing newline) so outputs are byte-stable.

A document whose keys are its dataclass's field names is derived from
the fields by ``to_document``: a complex scalar or array goes under
``<name>_re_im`` as ``[re, im]`` pairs, tuples and arrays become lists
whose numbers are floats, and other scalars are written as stored.
"""

import dataclasses
import json
import typing
from pathlib import Path

import numpy as np

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


def require(document: dict, key: str, context: str):
    """Fetch a mandatory key, raising DocumentError when absent."""
    if key not in document:
        raise DocumentError(f"{context}: missing required field '{key}'")
    return document[key]


def _plain(value, nested=False):
    if isinstance(value, (tuple, np.ndarray)):
        return [_plain(item, True) for item in value]
    return float(value) if nested and not isinstance(value, str) else value


def to_document(obj, kind: str, omit=(), **extra) -> dict:
    """The document of a dataclass instance: kind, extra keys, one key per field."""
    doc = {"kind": kind, **extra}
    for field in dataclasses.fields(obj):
        if field.name in omit:
            continue
        value = getattr(obj, field.name)
        if np.iscomplexobj(value):
            doc[f"{field.name}_re_im"] = _plain(np.stack([np.real(value), np.imag(value)], -1))
        else:
            doc[field.name] = _plain(value)
    return doc


def _coerce(hint, value):
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
    if hint is np.ndarray:
        return np.array([complex(re, im) for re, im in value])
    if hint is tuple:
        return tuple((str(name), float(number)) for name, number in value)
    return hint(value)


def check_keys(doc: dict, kind: str, keys) -> None:
    """Raise ValueError for a ``kind`` other than ``kind``, when the
    document has one, or for a key that is neither ``kind`` nor in ``keys``."""
    if doc.get("kind", kind) != kind:
        raise ValueError(f"kind {doc['kind']!r} is not {kind!r}")
    unknown = set(doc) - {"kind", *keys}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")


def from_document(cls, doc: dict, error, kind: str, extra_keys=()):
    """Inverse of ``to_document``, coercing each field by its annotation.

    The document's ``kind``, when it has one, must be ``kind``, and every
    other key must be a field's key or one of ``extra_keys``: keys that
    ``to_document`` writes besides the fields, and legacy keys still read
    and ignored.  An ``np.ndarray`` field is read as a complex array from
    ``<name>_re_im`` and a bare ``tuple`` as ``(name, value)`` pairs.  A key
    may be missing only when its field has a default.  A wrong kind, an
    unknown key and every KeyError, TypeError or ValueError, the class's
    own validation included, are raised as ``error``.
    """
    try:
        hints = typing.get_type_hints(cls)
        keys = {
            field.name: f"{field.name}_re_im" if hints[field.name] is np.ndarray else field.name
            for field in dataclasses.fields(cls)
        }
        check_keys(doc, kind, (*keys.values(), *extra_keys))
        kwargs = {}
        for field in dataclasses.fields(cls):
            key = keys[field.name]
            if key in doc:
                kwargs[field.name] = _coerce(hints[field.name], doc[key])
            elif field.default is dataclasses.MISSING:
                raise KeyError(key)
        return cls(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"invalid {cls.__name__} document: {exc}") from exc
