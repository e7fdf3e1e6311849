"""Synthetic SALES warehouse fact table.

Stands in for the paper's proprietary sales dataset (24M rows, 15
columns used).  The generator produces the column-profile mix a retail
fact table has: a geographic hierarchy (region > state > city > store)
whose columns are strongly correlated, a product hierarchy (category >
subcategory > brand > product), correlated order/ship dates, a sparse
customer key, and a handful of dense categoricals.
"""

from __future__ import annotations

import numpy as np

from repro.engine.table import Table
from repro.workloads.zipf import zipf_indices

#: The 15 columns the SALES experiments group on.
SALES_COLUMNS = (
    "region",
    "state",
    "city",
    "store_id",
    "category",
    "subcategory",
    "brand",
    "product_id",
    "customer_id",
    "channel",
    "promo_flag",
    "payment_type",
    "order_date",
    "ship_date",
    "quantity",
)

_CHANNELS = np.array(["web", "store", "phone", "partner"], dtype="S")
_PAYMENTS = np.array(
    ["card", "cash", "wire", "voucher", "credit", "gift"], dtype="S"
)


def make_sales(n_rows: int, z: float = 0.0, seed: int = 7, name: str = "sales") -> Table:
    """Generate a sales fact table.

    Args:
        n_rows: number of fact rows.
        z: Zipf skew applied to drawn value indices.
        seed: RNG seed.
        name: relation name.
    """
    rng = np.random.default_rng(seed)
    n = int(n_rows)

    def draw(domain: int) -> np.ndarray:
        return zipf_indices(n, max(int(domain), 1), z, rng)

    # Geographic hierarchy: store determines city, state, region.
    n_stores = 200
    store = draw(n_stores)
    city = store % 120  # several stores share a city
    state = city % 50
    region = state % 10

    # Product hierarchy: product determines brand/subcategory/category.
    n_products = 5_000
    product = draw(n_products)
    brand = product % 800
    subcategory = brand % 300
    category = subcategory % 40

    customer = draw(max(n // 8, 1))

    order_date = 12_000 + draw(730)
    ship_date = order_date + rng.integers(0, 15, size=n)

    return Table(
        name,
        {
            "region": region + 1,
            "state": state + 1,
            "city": city + 1,
            "store_id": store + 1,
            "category": category + 1,
            "subcategory": subcategory + 1,
            "brand": brand + 1,
            "product_id": product + 1,
            "customer_id": customer + 1,
            "channel": _CHANNELS[draw(len(_CHANNELS))],
            "promo_flag": draw(2),
            "payment_type": _PAYMENTS[draw(len(_PAYMENTS))],
            "order_date": order_date,
            "ship_date": ship_date,
            "quantity": draw(20) + 1,
        },
    )
