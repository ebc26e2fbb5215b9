"""Reading and writing of the JSON documents used by the toolchain.

Every non-binary artifact (scenes, calibration profiles, feature records,
material stores, fusion contexts, decisions) is a JSON document with
explicit units in field names.  Serialization is canonical (sorted keys,
two-space indent, trailing newline) so outputs are byte-stable.

``typed`` is the one rule that types a value of an outside document and
``malformed`` the one place where a malformed outside document, cube file
or provider answer becomes an error class, raised from a reader's block.

A document whose keys are its dataclass's field names is derived from
the fields by ``to_document``: a complex scalar or array goes under
``<name>_re_im`` as ``[re, im]`` pairs, tuples and arrays become lists
whose numbers are floats, a dataclass becomes an object of its fields,
and other scalars are written as stored.
"""

import dataclasses
import json
import reprlib
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DocumentError


def canonical_bytes(document: dict) -> bytes:
    """Serialize a document to canonical, byte-stable JSON."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_document(path, document: dict) -> None:
    Path(path).write_bytes(canonical_bytes(document))


@contextmanager
def malformed(error, context: str):
    """Raise a KeyError, TypeError, ValueError or OverflowError from the
    block as ``error``, with ``context`` as its prefix.

    ValueError covers DomainError, json.JSONDecodeError and
    UnicodeDecodeError, OverflowError a JSON integer too large for a
    float; a KeyError names the missing key.
    """
    try:
        yield
    except KeyError as exc:
        raise error(f"{context}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{context}: {exc}") from exc


def read_document(path) -> dict:
    """The JSON object in a UTF-8 file; other content raises DocumentError."""
    with malformed(DocumentError, f"{path}: not a UTF-8 JSON document"):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top-level value must be an object")
    return doc


def _plain(value, nested=False):
    if dataclasses.is_dataclass(value):
        return {field.name: _plain(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return [_plain(item, True) for item in value]
    return float(value) if nested and not isinstance(value, str) else value


def to_document(obj, kind: str, **extra) -> dict:
    """The document of a dataclass instance: kind, extra keys, one key per field."""
    doc = {"kind": kind, **extra}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if np.iscomplexobj(value):
            doc[f"{field.name}_re_im"] = _plain(np.stack([np.real(value), np.imag(value)], -1))
        else:
            doc[field.name] = _plain(value)
    return doc


_NAMES = {
    float: "a number", int: "a whole number", str: "a string", list: "an array", dict: "an object"
}


def typed(hint, value, name: str):
    """``value``, read from the key ``name`` of an outside document, as ``hint``:
    ``float`` takes a JSON number other than ``true``/``false``, ``int`` such
    a number with a whole value, ``str``, ``list`` and ``dict`` a string, an
    array and an object, ``list[X]`` an array of ``X`` and ``X | None`` also
    ``null``; an ``np.ndarray`` is read from ``[re, im]`` pairs and a bare
    ``tuple`` from ``[name, number]`` pairs.  Any other value raises."""
    args = typing.get_args(hint)
    if type(None) in args:
        (hint,) = set(args) - {type(None)}
        return None if value is None else typed(hint, value, name)
    if args:
        return [typed(args[0], item, name) for item in typed(list, value, name)]
    if hint is np.ndarray:
        return np.array([complex(re, im) for re, im in typed(list[list[float]], value, name)])
    if hint is tuple:
        pairs = typed(list[list], value, name)
        return tuple((typed(str, a, name), typed(float, b, name)) for a, b in pairs)
    if type(value) in (int, float) and (hint is float or hint is int and value % 1 == 0):
        return hint(value)
    if hint in (str, list, dict) and isinstance(value, hint):
        return value
    raise TypeError(f"{name} is {reprlib.repr(value)}, not {_NAMES[hint]}")


def check_keys(doc: dict, kind: str, keys) -> None:
    """Raise TypeError for a ``doc`` that is not an object, and ValueError
    for a key not in ``keys``.  A record may carry a ``kind`` key only where
    its format defines one, by listing ``"kind"`` in ``keys``; its value
    must then be ``kind``, which otherwise only names the record."""
    typed(dict, doc, kind)
    if "kind" in keys and doc.get("kind", kind) != kind:
        raise ValueError(f"kind {doc['kind']!r} is not {kind!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")


def from_document(cls, doc: dict, error, kind: str, extra_keys=(), readers=None):
    """Inverse of ``to_document``, reading each field by its annotation with ``typed``.

    The document's ``kind``, when it has one, must be ``kind``, and every
    other key must be a field's key or one of ``extra_keys``: keys that
    ``to_document`` writes besides the fields, and legacy keys still read
    and ignored.  An ``np.ndarray`` field is read from ``<name>_re_im``, and
    a field named in ``readers`` by its reader, called with the key's value
    and the fields read before it, in field order.  A
    key may be missing only when its field has a default.  A wrong kind, an
    unknown key and every exception that ``malformed`` maps, the class's
    own validation included, are raised as ``error``.
    """
    with malformed(error, f"invalid {cls.__name__} document"):
        hints = typing.get_type_hints(cls)
        keys = {
            field.name: f"{field.name}_re_im" if hints[field.name] is np.ndarray else field.name
            for field in dataclasses.fields(cls)
        }
        check_keys(doc, kind, ("kind", *keys.values(), *extra_keys))
        kwargs, readers = {}, readers or {}
        for field in dataclasses.fields(cls):
            key = keys[field.name]
            if field.name in readers and key in doc:
                kwargs[field.name] = readers[field.name](doc[key], kwargs)
            elif key in doc:
                kwargs[field.name] = typed(hints[field.name], doc[key], key)
            elif field.default is dataclasses.MISSING:
                raise KeyError(key)
        return cls(**kwargs)
