"""JSON emission with a fixed numeric format.

Every float is rendered with 17 significant digits (%.17g), which
round-trips IEEE doubles exactly and keeps repeated runs byte-identical;
Python's default shortest-repr would also round-trip but is a property of
the interpreter rather than of this tool's output contract.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    return format(x, ".17g")


def dump_json(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize nested dicts/lists/scalars to a JSON string.

    dict keys must be strings; insertion order is preserved.  numpy scalars
    and arrays are accepted and converted.
    """
    pad = " " * (indent * (_level + 1)) if indent else ""
    close_pad = " " * (indent * _level) if indent else ""
    sep = ",\n" if indent else ", "
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        obj = int(obj)

    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{pad}{dump_json(key)}: {dump_json(value, indent, _level + 1)}")
        body = sep.join(items)
        return "{\n" + body + "\n" + close_pad + "}" if indent else "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{dump_json(v, indent, _level + 1)}" for v in obj]
        body = sep.join(items)
        return "[\n" + body + "\n" + close_pad + "]" if indent else "[" + body + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_jsonl(records, path) -> None:
    """One compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dump_json(record))
            fh.write("\n")
