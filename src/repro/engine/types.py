"""Column type helpers for the columnar engine.

Columns are plain numpy arrays.  Three kinds are supported:

* integer (``int64``) — keys, counts, date ordinals;
* float (``float64``) — measures;
* string (fixed-width unicode, ``<U*``) — categorical / text columns.

SQL ``NULL`` is represented in-band by a per-kind sentinel so that group-by
treats all NULLs as a single group, exactly like SQL ``GROUP BY`` does.
"""

from __future__ import annotations

import numpy as np

#: Sentinel used for NULL in integer columns.
INT_NULL = np.iinfo(np.int64).min

#: Sentinel used for NULL in string columns.
STR_NULL = ""


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
    if array.dtype.kind == "U":
        return "str"
    raise SchemaError(f"unsupported column dtype: {array.dtype!r}")


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
    if array.dtype.kind == "U":
        # Native byte order, C-contiguous: scans and encodes then read
        # the column in place instead of copying it each time.
        return np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("="))
    if array.dtype == object:
        # Mixed python objects: try strings, mapping None to the sentinel.
        as_str = np.array(
            [STR_NULL if v is None else str(v) for v in array], dtype=str
        )
        return as_str
    raise SchemaError(f"cannot coerce values of dtype {array.dtype!r}")


def null_mask(array: np.ndarray) -> np.ndarray:
    """Return a boolean mask that is True where the column is NULL."""
    kind = column_kind(array)
    if kind == "int":
        return array == INT_NULL
    if kind == "float":
        return np.isnan(array)
    return array == STR_NULL


def value_width(array: np.ndarray) -> int:
    """Bytes consumed per value of this column (storage model).

    For strings this is the fixed-width itemsize, which mirrors how the
    engine actually stores them and is what the cost model charges for
    scanning the column.
    """
    return int(array.dtype.itemsize)
