"""JSON emission with a fixed numeric format.

Strings and keys are escaped by the standard library's
json.encoder.encode_basestring, as JSONEncoder(ensure_ascii=False) does.
Every float gets 17 significant digits (%.17g), which round-trips IEEE
doubles and keeps reruns byte-identical whatever the interpreter's float
repr; a non-finite float raises ValueError, and a type other than dict
(string keys), list, str, int, float, bool or None raises
TypeError.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring  # what JSONEncoder(ensure_ascii=False).encode runs on a str


def dump_json(obj, indent: int = 0) -> str:
    """Serialize nested dicts/lists/scalars to a JSON string, keeping dict
    order: one line with ", " and ": " separators, or with ``indent`` one
    item per line, indented by that many spaces per level."""
    return _dump(obj, indent, "\n" if indent else "")


def _dump(obj, indent: int, newline: str) -> str:
    # newline: what starts a line at the current level ("" on one line)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"refusing to serialize non-finite float {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)  # json.dumps per int would triple the time of long index lists
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if not isinstance(obj, (dict, list)):
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
    inner = newline + " " * indent
    sep = "," + inner if indent else ", "
    if isinstance(obj, list):
        body = sep.join([_dump(item, indent, inner) for item in obj])
        return "[" + inner + body + newline + "]" if obj else "[]"
    for key in obj:
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
    body = sep.join([f"{encode_basestring(key)}: {_dump(value, indent, inner)}" for key, value in obj.items()])
    return "{" + inner + body + newline + "}" if obj else "{}"


def write_jsonl(records, path) -> None:
    """One compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dump_json(record))
            fh.write("\n")
