"""Shared fixtures: small deterministic tables and sessions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.engine.table import Table


@pytest.fixture
def tiny_table() -> Table:
    """An 12-row table with known group structure."""
    return Table(
        "t",
        {
            "a": [1, 1, 2, 2, 3, 3, 1, 2, 3, 1, 2, 3],
            "b": ["x", "y", "x", "y", "x", "y", "x", "y", "x", "y", "x", "y"],
            "c": [10, 10, 20, 20, 30, 30, 10, 20, 30, 40, 40, 40],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1.5, 2.5, 3.5],
        },
    )


@pytest.fixture
def random_table() -> Table:
    """A 5,000-row table with mixed cardinalities and correlations."""
    rng = np.random.default_rng(0)
    n = 5_000
    high = rng.integers(0, n // 2, n)
    mid = rng.integers(0, 60, n)
    return Table(
        "r",
        {
            "high": high,
            "mid": mid,
            "low": rng.integers(0, 5, n),
            "corr": mid // 3,  # functionally dependent on mid
            "txt": rng.choice(np.array(["ok", "bad", "meh", "n/a"]), n),
            "shadow": high % 97,
        },
    )


@pytest.fixture
def session(random_table) -> Session:
    random_table.build_dictionaries()
    return Session.for_table(random_table, statistics="exact")


#: The engine's NULL sentinels, restated: ``INT_NULL`` for integers,
#: NaN for floats (the only value unequal to itself), ``b""`` for
#: strings (``""`` in a ``<U*`` array that skipped coercion).
NULL_OF_KIND = {"i": -(2**63), "f": float("nan"), "S": b"", "U": ""}


def _is_null(value) -> bool:
    return value != value or value in (-(2**63), b"", "")


def _key_value(value):
    """A key value as a dict key.  NULLs group together, and NaN is the
    one NULL unequal to itself, so every NaN becomes one NaN object."""
    return NULL_OF_KIND["f"] if value != value else value


def brute_force_group_by(table: Table, keys, agg="count", column=None):
    """Reference implementation: python dict over row tuples.

    SQL NULL rules: COUNT(*) counts rows; COUNT(col), SUM, MIN, MAX and
    AVG skip NULL inputs, and AVG is SUM / COUNT(col).  A group with no
    non-NULL input counts 0 and otherwise yields the NULL of its column's
    kind (NaN for AVG).
    """
    groups: dict[tuple, list] = {}
    key_arrays = [table[k] for k in keys]
    value = table[column] if column is not None else None
    for i in range(table.num_rows):
        key = tuple(_key_value(a[i].item()) for a in key_arrays)
        groups.setdefault(key, []).append(
            value[i].item() if value is not None else 1
        )
    if agg == "count":
        return {key: len(vals) for key, vals in groups.items()}
    null = float("nan") if agg == "avg" else NULL_OF_KIND[value.dtype.kind]
    reducer = {
        "count_col": len,
        "sum": sum,
        "min": min,
        "max": max,
        "avg": lambda vals: sum(vals) / len(vals),
    }[agg]
    out = {}
    for key, vals in groups.items():
        present = [v for v in vals if not _is_null(v)]
        out[key] = reducer(present) if present or agg == "count_col" else null
    return out


def result_as_dict(result_table: Table, keys, alias="cnt"):
    """Turn a group-by result table into {key_tuple: aggregate}."""
    out = {}
    key_arrays = [result_table[k] for k in keys]
    agg = result_table[alias]
    for i in range(result_table.num_rows):
        out[tuple(_key_value(a[i].item()) for a in key_arrays)] = agg[i].item()
    return out
