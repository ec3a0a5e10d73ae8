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
converter calls ``PyOS_string_to_double`` as ``float()`` does) takes a
file with no label column, no ``"`` and no blank line at the top, and no
line longer than the field size limit, when every cell parses to a finite
value and every row has the header's width.  Every other file, each
malformed one included, goes through the csv module, which defines the
format and every error message; the points, the labels and the messages
are the same whichever reader runs.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter

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
    about 0.4 MB more peak RSS on a 650 KB file)."""
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.read(1) != "\ufeff":
            fh.seek(0)
        yield fh


def _within_limit(lines, limit: int):
    """The lines, raising ValueError at one longer than ``limit``: a file
    with such a line goes to the csv module, which names its row."""
    for line in lines:
        if len(line) > limit:
            raise ValueError("line past the field size limit")
        yield line


def _plain_points(path) -> np.ndarray | None:
    """The points of a file numpy's C reader takes (module docstring), or
    None for a file the csv module must read."""
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
            lines = _within_limit(fh, limit)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # such as "input contained no data"
                points = np.loadtxt(
                    lines if has_header else chain([first], lines),
                    delimiter=",",
                    comments=None,  # a "#" cell is a bad cell, not a comment
                    dtype=np.float64,
                    ndmin=2,
                )
    except OSError:
        raise  # io.UnsupportedOperation, from an unseekable file, is a ValueError too
    except (ValueError, Warning):  # UnicodeDecodeError included: the csv path gives its offset
        return None
    if points.shape[0] and points.shape[1] == len(cells) and np.isfinite(points).all():
        return points
    return None


def load_cloud_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, labels) of a cloud file: N x D float64 coordinates and N
    int64 labels, or None without a label column; raises CloudParseError."""
    points = _plain_points(path)
    if points is not None:
        return points, None
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

    header = None
    if any(not _is_float(cell.strip()) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CloudParseError(f"{path}: header only, no data rows")

    has_labels = header is not None and header and header[-1].lower() == "label"
    # a header fixes the column count; without one, the first row does
    width = len(header) if header else len(rows[0])
    n_coords = width - 1 if has_labels else width
    # one float()/int() per cell, parsed in one flat pass over the coordinate
    # cells, and one finiteness check; the cells keep their strip() because
    # float() and int() do not skip the \x1c-\x1f separators that str.strip()
    # removes
    try:
        if n_coords and all(len(row) == width for row in rows):
            coord_rows = map(itemgetter(slice(n_coords)), rows) if has_labels else rows
            points = np.array(
                list(map(float, map(str.strip, chain.from_iterable(coord_rows)))), dtype=np.float64
            ).reshape(len(rows), n_coords)
            labels = np.array([int(row[-1].strip()) for row in rows], dtype=np.int64) if has_labels else None
            if np.isfinite(points).all() and (labels is None or (labels >= 0).all()):
                return points, labels
    except (ValueError, OverflowError):  # OverflowError: a label beyond int64
        pass
    raise _first_error(path, rows, 2 if header else 1, width, has_labels)


def _first_error(path, rows, first_row: int, width: int, has_labels: bool) -> CloudParseError:
    """The error of the earliest bad row, found cell by cell: in each row the
    width, then the coordinates left to right, then the label."""
    for r, row in enumerate(rows, start=first_row):
        if len(row) != width:
            return CloudParseError(f"{path}: expected {width} columns, found {len(row)}", row=r)
        coord_cells = row[:-1] if has_labels else row
        for c, cell in enumerate(coord_cells, start=1):
            token = cell.strip()
            try:
                value = float(token)
            except ValueError:
                return CloudParseError(f"{path}: cannot parse {token!r} as a number", row=r, column=c)
            if not math.isfinite(value):
                return CloudParseError(f"{path}: non-finite coordinate {token!r}", row=r, column=c)
        if not coord_cells:
            return CloudParseError(f"{path}: row has no coordinate columns", row=r)
        if has_labels:
            token = row[-1].strip()
            try:
                label = int(token)
            except ValueError:
                return CloudParseError(f"{path}: cannot parse label {token!r} as an integer", row=r, column=width)
            if not 0 <= label <= _LABEL_MAX:
                bound = "nonnegative" if label < 0 else f"at most {_LABEL_MAX}"
                return CloudParseError(f"{path}: labels must be {bound}, got {label}", row=r, column=width)
