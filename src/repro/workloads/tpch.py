"""Synthetic TPC-H ``lineitem`` generator.

Matches the real lineitem on what the GB-MQO algorithm is sensitive to:

* 16 columns, 12 of them the non-floating-point columns the paper's SC
  workload groups on (quantity, extendedprice, discount and tax are
  DECIMAL in TPC-H and were excluded in Section 6.1);
* per-column distinct-value profile: near-key columns (l_orderkey,
  l_comment), mid-cardinality keys (l_partkey, l_suppkey), dates with
  ~2,500 distinct values, and dense categoricals (flags, modes);
* correlations: the three date columns are offsets of one another (so
  their pairwise unions stay small — the paper's chosen plan merged
  l_receiptdate with l_commitdate), and l_suppkey is functionally close
  to l_partkey (4 suppliers per part, as in TPC-H);
* a Zipf skew knob ``z`` regenerating the dataset for Section 6.8.

Scale: TPC-H 1 GB has 6M lineitem rows; pass ``n_rows`` to scale down
proportionally (distinct counts scale with the row count, as in TPC-H).
"""

from __future__ import annotations

import numpy as np

from repro.engine.table import Table
from repro.workloads.zipf import decimal_bytes, zipf_indices

#: The 12 non-floating-point columns used by the paper's SC workload.
LINEITEM_SC_COLUMNS = (
    "l_orderkey",
    "l_partkey",
    "l_suppkey",
    "l_linenumber",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
    "l_commitdate",
    "l_receiptdate",
    "l_shipinstruct",
    "l_shipmode",
    "l_comment",
)

_RETURN_FLAGS = np.array(["A", "N", "R"], dtype="S")
_LINE_STATUS = np.array(["O", "F"], dtype="S")
_SHIP_INSTRUCT = np.array(
    ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], dtype="S"
)
_SHIP_MODE = np.array(
    ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"], dtype="S"
)

#: Distinct ship dates in TPC-H (1992-01-02 .. 1998-12-01).
_N_SHIP_DATES = 2526
_EPOCH = 8036  # ordinal offset so dates look like day numbers


def _scaled_dates(n_rows: int) -> tuple[int, int, int]:
    """Scale the date domain with the row count.

    TPC-H 1 GB has 6M rows over 2,526 ship dates, so the
    (commit, receipt) date *pair* has ~300k distinct values — 5% of the
    table — which is what makes the paper's plan merge the date
    columns.  A scaled-down table must preserve that ratio, so the date
    domain (and the commit/receipt offset windows) shrink with it.

    Returns:
        (n_dates, commit_window, receipt_window).
    """
    n_dates = int(min(_N_SHIP_DATES, max(60, n_rows // 1_500)))
    commit_window = 15 if n_rows < 3_000_000 else 30
    receipt_window = 8 if n_rows < 3_000_000 else 30
    return n_dates, commit_window, receipt_window


def _draw(
    rng: np.random.Generator, n: int, domain: int, z: float
) -> np.ndarray:
    """Value indices over a domain, uniform or Zipf-skewed."""
    domain = max(int(domain), 1)
    return zipf_indices(n, domain, z, rng)


def make_lineitem(
    n_rows: int,
    z: float = 0.0,
    seed: int = 42,
    name: str = "lineitem",
) -> Table:
    """Generate a lineitem-like relation.

    Args:
        n_rows: number of rows (6_000_000 corresponds to TPC-H 1 GB).
        z: Zipf skew exponent applied to the drawn value indices
            (0 = TPC-H's uniform draws; Section 6.8 sweeps 0..3).
        seed: RNG seed.
        name: relation name.
    """
    rng = np.random.default_rng(seed)
    n = int(n_rows)

    n_orders = max(n // 4, 1)
    n_parts = max(n // 30, 1)
    n_supps = max(n // 600, 1)

    orderkey = _draw(rng, n, n_orders, z) + 1
    partkey = _draw(rng, n, n_parts, z) + 1
    # TPC-H: each part is stocked by 4 suppliers.
    suppkey = (partkey * 7 + rng.integers(0, 4, size=n)) % n_supps + 1
    linenumber = _draw(rng, n, 7, z) + 1
    quantity = _draw(rng, n, 50, z) + 1

    n_dates, commit_window, receipt_window = _scaled_dates(n)
    shipdate = _EPOCH + _draw(rng, n, n_dates, z)
    commitdate = shipdate + rng.integers(-commit_window, commit_window + 1, size=n)
    receiptdate = shipdate + rng.integers(1, receipt_window + 1, size=n)

    returnflag = _RETURN_FLAGS[_draw(rng, n, len(_RETURN_FLAGS), z)]
    linestatus = _LINE_STATUS[_draw(rng, n, len(_LINE_STATUS), z)]
    shipinstruct = _SHIP_INSTRUCT[_draw(rng, n, len(_SHIP_INSTRUCT), z)]
    shipmode = _SHIP_MODE[_draw(rng, n, len(_SHIP_MODE), z)]

    # l_comment is text with near-key cardinality (~90% of rows unique).
    comment_ids = _draw(rng, n, max(int(n * 0.9), 1), z)
    comment = np.char.add(b"regular deposits haggle ", decimal_bytes(comment_ids))

    extendedprice = np.round(
        (quantity * (90_000.0 + 100.0 * partkey % 100_000) / 100.0), 2
    )
    discount = _draw(rng, n, 11, z) / 100.0
    tax = _draw(rng, n, 9, z) / 100.0

    return Table(
        name,
        {
            "l_orderkey": orderkey,
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_linenumber": linenumber,
            "l_quantity": quantity,
            "l_extendedprice": extendedprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": shipdate,
            "l_commitdate": commitdate,
            "l_receiptdate": receiptdate,
            "l_shipinstruct": shipinstruct,
            "l_shipmode": shipmode,
            "l_comment": comment,
        },
    )
