"""Artifact files: atomic writes, and the one table format every artifact uses.

Recordings, joint clouds, diagrams, ``features.csv`` and the density dump
are tables: a header line, then one line of comma-separated cells per row.
A number is written as ``repr``, which ``float()`` reads back exactly
(``inf`` included), and a text cell as it is.
"""

from __future__ import annotations

import locale
import os
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text or bytes) to ``path`` so that readers see no file or the whole file.

    The data goes to a temporary file in the same directory, which
    ``os.replace`` then moves onto ``path`` in one step.  A write that fails
    or is cut off midway leaves ``path`` as it was, so resume, which skips
    any artifact that exists, never accepts a partial one.  On failure the
    temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data) if isinstance(data, bytes) else tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_table(rows) -> str:
    """One line per row, by ``repr``, or by ``str`` (text as it is) if text leads the row."""
    lines = [",".join(map(str if isinstance(row[0], str) else repr, row)) for row in rows]
    lines.append("")
    return "\n".join(lines)


def write_table(path, rows) -> None:
    write_atomic(path, format_table(rows))


class Table(NamedTuple):
    header: list[str]         # column names, stripped
    ids: list[str] | None     # each row's text cell
    values: list[float]       # the numbers, row after row
    width: int                # numbers per row

    def array(self) -> np.ndarray:
        return np.fromiter(self.values, float, len(self.values)).reshape(-1, self.width)


def read_table(source, ids: bool = False, ints=()) -> Table:
    """The table in the file at ``source``, or in the bytes read from one.

    The bytes decode as ``Path.read_text`` would, and blank lines are skipped.
    With ``ids``, each row's first cell is text; every other cell goes through
    ``float()``, and one in a column named in ``ints`` through ``int()`` too.
    Only when the one-pass parse fails are the lines scanned, for the first
    ragged or unparsable line, named by its number in the file.
    """
    if not isinstance(source, bytes):
        with open(source, "rb") as f:
            source = f.read()
    lines = source.decode(locale.getpreferredencoding(False)).splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise ValueError("empty file")
    names = [h.strip() for h in lines[start].split(",")]
    first, width = start + 1, lines[start].count(",") + 1
    if width <= ids:
        raise ValueError("the header names no column after the id")
    numeric = [j - ids for j, name in enumerate(names) if name in ints]
    body = [ln for ln in lines[first:] if ln.strip()]
    # Each row but the first starts with a newline, which float() and int()
    # skip; the rows are even exactly when those cells sit ``width`` apart.
    cells = ",\n".join(body).split(",") if body else []
    try:
        if (len(cells) != width * len(body)
                or not all(map(str.startswith, cells[width::width], repeat("\n")))):
            raise ValueError
        row_ids = [c.lstrip("\n") for c in cells[::width]] if ids else None
        if ids:
            del cells[::width]
        for cell in {c for j in numeric for c in cells[j::width - ids]}:
            int(cell)
        return Table(names, row_ids, list(map(float, cells)), width - ids)
    except ValueError:
        pass
    for lineno, ln in enumerate(lines[first:], start=first + 1):
        cells = ln.split(",")
        if not ln.strip():
            continue
        if len(cells) != width:
            raise ValueError(f"ragged rows: line {lineno} has {len(cells)} cells, expected {width}")
        try:
            list(map(float, cells[ids:]))
        except ValueError as exc:
            raise ValueError(f"non-numeric cell at line {lineno}: {exc}") from None
        try:
            for j in numeric:
                int(cells[ids + j])
        except ValueError as exc:
            raise ValueError(f"non-integer cell at line {lineno}: {exc}") from None
    raise ValueError("the table does not parse, yet no line is at fault")
