"""Point-cloud CSV files.

Format: one row per point, D numeric coordinate columns, optional header.
Every row has as many columns as the header, or as the first row when there
is no header.  If a header is present and its last column is named
``label`` (any case), that column is parsed as nonnegative integer class
labels; otherwise every column is a coordinate.  Parse errors carry 1-based
row/column positions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class CloudParseError(Exception):
    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
        self.row = row
        self.column = column


@dataclass
class LoadedCloud:
    points: np.ndarray
    labels: np.ndarray | None


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_cloud_csv(path) -> LoadedCloud:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise CloudParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not rows:
        raise CloudParseError(f"{path}: no data rows")

    header = None
    if any(not _is_float(cell.strip()) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CloudParseError(f"{path}: header only, no data rows")

    has_labels = header is not None and header and header[-1].lower() == "label"
    # a header fixes the column count; without one, the first row does
    width = len(header) if header else len(rows[0])
    points, labels = [], []
    for r, row in enumerate(rows, start=2 if header else 1):
        if len(row) != width:
            raise CloudParseError(
                f"expected {width} columns, found {len(row)}", row=r
            )
        coord_cells = row[:-1] if has_labels else row
        coords = []
        for c, cell in enumerate(coord_cells, start=1):
            token = cell.strip()
            try:
                value = float(token)
            except ValueError:
                raise CloudParseError(f"cannot parse {token!r} as a number", row=r, column=c) from None
            if not np.isfinite(value):
                raise CloudParseError(f"non-finite coordinate {token!r}", row=r, column=c)
            coords.append(value)
        if not coords:
            raise CloudParseError("row has no coordinate columns", row=r)
        points.append(coords)
        if has_labels:
            token = row[-1].strip()
            try:
                label = int(token)
            except ValueError:
                raise CloudParseError(f"cannot parse label {token!r} as an integer", row=r, column=width) from None
            if label < 0:
                raise CloudParseError(f"labels must be nonnegative, got {label}", row=r, column=width)
            labels.append(label)

    return LoadedCloud(
        points=np.array(points, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
    )
