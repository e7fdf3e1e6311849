"""Synthetic customer relation for the data-quality scenario.

The paper's Section 1 example: Customer(LastName, FirstName, M.I.,
Gender, Address, City, State, Zip, Country-ish).  The generator plants
the quality problems an analyst hunts for — NULLs at controllable
rates, a suspicious extra State value, duplicate almost-key
combinations — so examples and tests exercise the profiling workflow on
data that actually has findings.
"""

from __future__ import annotations

import numpy as np

from repro.engine.table import Table
from repro.engine.types import INT_NULL, STR_NULL
from repro.workloads.zipf import decimal_bytes

#: 49 plausible states plus one suspicious placeholder value.
STATES = tuple(f"S{i:02d}" for i in range(49)) + ("XX",)


def make_customers(
    rows: int,
    seed: int = 3,
    middle_null_rate: float = 0.15,
    gender_null_rate: float = 0.04,
    zip_null_rate: float = 0.01,
    duplicate_rate: float = 0.0,
    name: str = "customer",
) -> Table:
    """Generate a customer relation with seeded quality issues.

    Args:
        rows: row count.
        seed: RNG seed.
        middle_null_rate / gender_null_rate / zip_null_rate: NULL
            injection rates for the respective columns.
        duplicate_rate: fraction of rows that are near-duplicates of an
            earlier row (same name + zip), defeating the "is
            (last, first, mi, zip) a key?" check.
        name: relation name.
    """
    rng = np.random.default_rng(seed)
    last = np.char.add(
        b"family", decimal_bytes(rng.integers(0, max(rows // 6, 1), rows))
    )
    first = np.char.add(b"given", decimal_bytes(rng.integers(0, 400, rows)))
    middle = rng.choice(np.array(["A", "B", "C", "J", "M"], dtype="S"), rows)
    middle[rng.random(rows) < middle_null_rate] = STR_NULL
    gender = rng.choice(np.array(["F", "M"], dtype="S"), rows)
    gender[rng.random(rows) < gender_null_rate] = STR_NULL
    city = np.char.add(b"city_", decimal_bytes(rng.integers(0, 400, rows)))
    state = rng.choice(np.array(STATES, dtype="S"), rows)
    zipcode = rng.integers(10_000, 99_999, rows)
    zipcode[rng.random(rows) < zip_null_rate] = INT_NULL
    address = np.char.add(
        np.char.add(decimal_bytes(rng.integers(1, 9_999, rows)), b" main st apt "),
        decimal_bytes(rng.integers(1, 300, rows)),
    )

    if duplicate_rate > 0 and rows > 1:
        n_duplicates = int(rows * duplicate_rate)
        targets = rng.integers(0, rows, n_duplicates)
        sources = rng.integers(0, rows, n_duplicates)
        for column in (last, first, middle):
            column[targets] = column[sources]
        zipcode[targets] = zipcode[sources]

    return Table(
        name,
        {
            "last_name": last,
            "first_name": first,
            "middle_initial": middle,
            "gender": gender,
            "address": address,
            "city": city,
            "state": state,
            "zip": zipcode,
        },
    )
