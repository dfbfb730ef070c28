"""Result documents: schema-versioned JSON and fixed-header CSV, written
atomically.

JSON has no infinity literal, so non-finite floats are serialized as the
strings ``"+inf"`` / ``"-inf"`` / ``"nan"`` (and parsed back by
:func:`from_jsonable`); CSV spells them the same way, unquoted.  Every other
float is written as its shortest ``repr``.  Documents carry no timestamps or
environment state, so a rerun with the same seed is byte-identical.

A *table* is a 2-D float64 array, the form the ``field`` command's rows
take.  Both renderers write a table column by column from the array, a fixed
number of rows at a time, and format each distinct bit pattern of a column's
chunk once: a tensor grid's coordinates and a flat energy repeat a few values
down a column.  The text is byte-identical to rendering the same rows as
lists of floats; the small tables of the other commands are lists and go
through :mod:`csv` and :mod:`json` cell by cell.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import secrets
import stat
from collections.abc import Iterator
from typing import Any

import numpy as np

SCHEMA_VERSION = "groundbound-result/1"

__all__ = [
    "SCHEMA_VERSION",
    "to_jsonable",
    "from_jsonable",
    "render_json",
    "render_csv",
    "write_text_atomic",
    "envelope",
]

# Rows rendered per step: the per-cell strings of one chunk are alive at a
# time, so peak memory stays near the size of the finished text.
_CHUNK_ROWS = 4096

# Stands in for a table while json lays out the rest of the document; it
# holds NUL characters, which no document string contains.
_TABLE_SENTINEL = "\0groundbound-table\0"


def _nonfinite_text(f: float) -> str:
    """How documents spell a non-finite float."""
    if math.isnan(f):
        return "nan"
    return "+inf" if f > 0 else "-inf"


def _is_table(value: Any) -> bool:
    """Whether ``value`` is a 2-D float64 array with at least one column.
    Other float arrays go cell by cell, to the same text."""
    return (isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[1] > 0
            and value.dtype == np.float64)


def to_jsonable(value: Any) -> Any:
    """Recursively convert to plain JSON types; non-finite floats become
    strings.  Tables stay arrays, for :func:`render_json` to lay out."""
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value if _is_table(value) else [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if math.isfinite(f) else _nonfinite_text(f)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable` for the special float strings."""
    if isinstance(value, dict):
        return {k: from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    if value == "+inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


def envelope(command: str, system: dict, config: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "system": to_jsonable(system),
        "config": to_jsonable(config),
        "result": to_jsonable(result),
    }


def _cell_text(column: np.ndarray, quote: str) -> list[str]:
    """Each float of ``column`` as text; non-finite ones spelled inside ``quote``."""
    values = column.tolist()
    cells = list(map(repr, values))
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = quote + _nonfinite_text(values[i]) + quote
    return cells


def _column_text(column: np.ndarray, quote: str) -> list[str]:
    """:func:`_cell_text` of ``column``, with one ``repr`` per distinct bit
    pattern.  Keyed on the bits, so ``-0.0`` and ``0.0`` keep their own
    spellings; a column of distinct values is formatted in row order, with
    no gather."""
    bits = column.view(np.int64)
    ordered = np.sort(bits)  # half the cost of np.unique's, on the common distinct case
    if (ordered[1:] != ordered[:-1]).all():
        return _cell_text(column, quote)
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    return np.array(_cell_text(column[first], quote), dtype=object)[inverse].tolist()


def _table_chunks(table: np.ndarray, cell_sep: str, row_sep: str, quote: str) -> Iterator[str]:
    """The rows of ``table`` as text, ``_CHUNK_ROWS`` rows per piece: cells
    joined by ``cell_sep``, rows by ``row_sep`` (not after a piece's last)."""
    k = table.shape[1]
    for start in range(0, len(table), _CHUNK_ROWS):
        block = table[start:start + _CHUNK_ROWS]
        # the chunk's cells and separators in row order, joined once: no
        # per-row strings
        pieces = [cell_sep] * (2 * k * len(block) - 1)
        for j in range(k):
            pieces[2 * j::2 * k] = _column_text(block[:, j], quote)
        pieces[2 * k - 1::2 * k] = [row_sep] * (len(block) - 1)
        yield "".join(pieces)


def _json_table(table: np.ndarray, indent: int) -> list[str]:
    """Pieces of ``table`` as ``json.dumps(indent=2)`` lays out a list of rows
    whose opening bracket sits on a line indented by ``indent`` spaces."""
    if len(table) == 0:
        return ["[]"]
    pad = " " * indent
    row_head = "\n" + pad + "  [\n" + pad + "    "
    row_tail = "\n" + pad + "  ]"
    row_sep = row_tail + "," + row_head
    pieces = ["[", row_head]
    for chunk in _table_chunks(table, ",\n" + pad + "    ", row_sep, '"'):
        pieces += [chunk, row_sep]
    pieces[-1] = row_tail + "\n" + pad + "]"
    return pieces


def render_json(document: dict) -> str:
    tables: list[np.ndarray] = []

    def park(value: Any) -> str:
        if not _is_table(value):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        tables.append(value)
        return _TABLE_SENTINEL

    text = json.dumps(document, indent=2, sort_keys=True, default=park) + "\n"
    if not tables:
        return text
    # each table goes where its sentinel was encoded, in encoding order
    parts = text.split(json.dumps(_TABLE_SENTINEL))
    pieces = [parts[0]]
    for table, part in zip(tables, parts[1:]):
        line = pieces[-1][pieces[-1].rfind("\n") + 1:]
        pieces += _json_table(table, len(line) - len(line.lstrip(" ")))
        pieces.append(part)
    return "".join(pieces)


def _fmt_cell(v: Any) -> Any:
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return repr(f) if math.isfinite(f) else _nonfinite_text(f)
    return v


def render_csv(header: list[str], rows: list[list[Any]] | np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180-style quoting and line ends
    writer.writerow(header)
    if _is_table(rows):
        pieces = [buf.getvalue()]
        for chunk in _table_chunks(rows, ",", "\r\n", ""):  # float cells need no quoting
            pieces += [chunk, "\r\n"]
        return "".join(pieces)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename.  The text
    is written as UTF-8 with its line ends untranslated, so the file's bytes
    are the same on every platform.  The file gets the mode a plain ``open``
    would leave: a new file ``0o666`` less the umask, which the kernel
    applies when the temp file is created, and an existing file its own
    mode."""
    directory = os.path.dirname(os.path.abspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f".groundbound-{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
