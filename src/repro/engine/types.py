"""Column type helpers for the columnar engine.

Columns are plain numpy arrays.  Three kinds are supported:

* integer (``int64``) — keys, counts, date ordinals;
* float (``float64``) — measures;
* string (fixed-width UTF-8 bytes, ``S*``) — categorical / text columns.

A table stores every string column as UTF-8 bytes, one byte per ASCII
character: :func:`coerce_column` encodes ``str`` (``<U*``) input, so
values, scans and dictionary encodes move a byte where ``<U*`` moved
four.  UTF-8 byte order is code-point order, so sorted dictionaries and
string MIN/MAX read the same as over the decoded strings.  An array
handed to :meth:`Table.wrap <repro.engine.table.Table.wrap>` skips
coercion and may still be ``<U*``; every kernel accepts both.

SQL ``NULL`` is represented in-band by a per-kind sentinel so that group-by
treats all NULLs as a single group, exactly like SQL ``GROUP BY`` does.
"""

from __future__ import annotations

import numpy as np

#: Sentinel used for NULL in integer columns.
INT_NULL = np.iinfo(np.int64).min

#: Sentinel used for NULL in string columns (the empty string; ``""``
#: in a ``<U*`` array that skipped coercion).
STR_NULL = b""


class EngineError(Exception):
    """Base class for all errors raised by the engine."""


class SchemaError(EngineError):
    """A table or query referenced a column that does not exist, or a
    column definition was inconsistent."""


def column_kind(array: np.ndarray) -> str:
    """Classify an array as ``'int'``, ``'float'`` or ``'str'``.

    Raises:
        SchemaError: if the dtype is not one the engine supports.
    """
    if np.issubdtype(array.dtype, np.integer):
        return "int"
    if np.issubdtype(array.dtype, np.floating):
        return "float"
    if array.dtype.kind in "SU":
        return "str"
    raise SchemaError(f"unsupported column dtype: {array.dtype!r}")


def utf8_bytes(array: np.ndarray) -> np.ndarray:
    """A ``<U*`` array as UTF-8 bytes (``S*``), value for value.

    ASCII input — every generated and most loaded column — narrows each
    4-byte code point to one byte in a single vectorised cast, keeping
    the width in characters as the width in bytes; other input is
    encoded value by value to the widest encoding's byte count.
    """
    native = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("="))
    width = native.dtype.itemsize // 4
    chars = native.view(np.uint32)
    if int(chars.max(initial=0)) < 0x80:
        return chars.astype(np.uint8).view(f"S{max(width, 1)}")
    return np.char.encode(native, "utf-8")


def char_lengths(array: np.ndarray) -> np.ndarray:
    """Characters per value of a string column, as ``int64``.

    A UTF-8 value holds one byte per character plus one continuation
    byte (``0b10xxxxxx``) per byte past a character's first.
    """
    lengths = np.char.str_len(array).astype(np.int64)
    if array.dtype.kind == "S" and len(array):
        data = np.ascontiguousarray(array)
        raw = data.view(np.uint8).reshape(len(data), data.dtype.itemsize)
        lengths -= np.count_nonzero((raw & 0xC0) == 0x80, axis=1)
    return lengths


def coerce_column(values) -> np.ndarray:
    """Coerce a Python sequence or array into a supported column array."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise SchemaError("columns must be one-dimensional")
    if np.issubdtype(array.dtype, np.bool_):
        return array.astype(np.int64)
    if np.issubdtype(array.dtype, np.integer):
        return array.astype(np.int64, copy=False)
    if np.issubdtype(array.dtype, np.floating):
        return array.astype(np.float64, copy=False)
    if array.dtype.kind == "S":
        # C-contiguous: scans and encodes then read the column in place
        # instead of copying it each time.
        return np.ascontiguousarray(array)
    if array.dtype.kind == "U":
        return utf8_bytes(array)
    if array.dtype == object:
        # Mixed python objects: try strings, mapping None to the sentinel.
        return np.array(
            [
                STR_NULL if v is None
                else v if isinstance(v, bytes)
                else str(v).encode()
                for v in array
            ],
            dtype=np.bytes_,
        )
    raise SchemaError(f"cannot coerce values of dtype {array.dtype!r}")


def null_mask(array: np.ndarray) -> np.ndarray:
    """Return a boolean mask that is True where the column is NULL."""
    kind = column_kind(array)
    if kind == "int":
        return array == INT_NULL
    if kind == "float":
        return np.isnan(array)
    return array == array.dtype.type()


def null_value(dtype: np.dtype):
    """The NULL sentinel of a column of ``dtype``'s kind: ``STR_NULL``
    for ``S*``, and ``""`` for a ``<U*`` array that skipped coercion."""
    kind = column_kind(np.empty(0, dtype=dtype))
    if kind == "int":
        return INT_NULL
    if kind == "float":
        return np.nan
    return dtype.type()


def value_width(array: np.ndarray) -> int:
    """Bytes consumed per value of this column (storage model).

    For strings this is the fixed-width itemsize — the longest value's
    UTF-8 byte count, one byte per ASCII character — which mirrors how
    the engine actually stores them and is what the cost model charges
    for scanning the column.
    """
    return int(array.dtype.itemsize)
