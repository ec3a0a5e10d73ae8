"""JSON emission: the standard library's encoder, with fixed settings.

Strings stay unescaped UTF-8 (``ensure_ascii=False``), dict order is kept,
and every float prints as Python's shortest repr that round-trips it
(``0.1``, ``-0.0``, ``1e+300``), float subclasses such as ``np.float64``
included.  A non-finite float raises ValueError; a type json cannot encode
(a set, ``np.int64``, ...) raises TypeError.
"""

from __future__ import annotations

import json


def dump_json(obj, indent: int = 0) -> str:
    """Serialize nested dicts/lists/scalars to a JSON string, keeping dict
    order: one line with ", " and ": " separators, or with ``indent`` one
    item per line, indented by that many spaces per level."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, indent=indent or None)


def write_jsonl(records, path) -> None:
    """One compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dump_json(record))
            fh.write("\n")
