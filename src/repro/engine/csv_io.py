"""CSV ingestion and export for the engine.

The data-quality scenario the paper motivates starts from files an
analyst has on hand; this module loads a delimited file into a
:class:`~repro.engine.table.Table` with simple type inference (int,
then float, then string; empty fields become NULL) and writes result
tables back out.  Files are read and written as UTF-8, and a string
column holds each field's UTF-8 bytes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.engine.table import Table
from repro.engine.types import INT_NULL, SchemaError, STR_NULL


def _infer_column(values: list[str]) -> np.ndarray:
    """Infer int -> float -> str, mapping empty strings to NULL."""
    non_empty = [v for v in values if v != ""]
    if non_empty:
        try:
            ints = [
                INT_NULL if v == "" else int(v) for v in values
            ]
            return np.array(ints, dtype=np.int64)
        except ValueError:
            pass
        try:
            floats = [
                np.nan if v == "" else float(v) for v in values
            ]
            return np.array(floats, dtype=np.float64)
        except ValueError:
            pass
    return np.array(
        [STR_NULL if v == "" else v.encode() for v in values], dtype=np.bytes_
    )


def load_csv(
    path: str | Path,
    name: str | None = None,
    delimiter: str = ",",
    max_rows: int | None = None,
) -> Table:
    """Load a delimited file with a header row into a Table.

    Args:
        path: file to read.
        name: relation name (file stem by default).
        delimiter: field separator.
        max_rows: stop after this many data rows (None = all).

    Raises:
        SchemaError: on an empty file or ragged rows.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty") from None
        if not header or any(not c.strip() for c in header):
            raise SchemaError(f"{path} has a malformed header row")
        columns: list[list[str]] = [[] for _ in header]
        for row_number, row in enumerate(reader):
            if max_rows is not None and row_number >= max_rows:
                break
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: row {row_number + 2} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            for i, value in enumerate(row):
                columns[i].append(value)
    data = {
        column.strip(): _infer_column(values)
        for column, values in zip(header, columns)
    }
    return Table(name or path.stem, data)


def save_csv(table: Table, path: str | Path, delimiter: str = ",") -> None:
    """Write a table to a delimited file with a header row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.column_names)
        writer.writerows(table.to_rows())
