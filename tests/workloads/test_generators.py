"""Unit tests for the dataset generators and the Zipf sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.customers import make_customers
from repro.workloads.nref import NREF_COLUMNS, make_neighboring_seq
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem
from repro.workloads.zipf import effective_distinct, zipf_indices, zipf_weights


class TestZipf:
    def test_weights_sum_to_one(self):
        assert zipf_weights(100, 1.5).sum() == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_indices_in_range(self):
        rng = np.random.default_rng(0)
        draws = zipf_indices(10_000, 50, 2.0, rng)
        assert draws.min() >= 0 and draws.max() < 50

    def test_skew_concentrates_mass(self):
        rng = np.random.default_rng(0)
        skewed = zipf_indices(10_000, 100, 2.5, rng)
        top_share = np.mean(skewed == 0)
        assert top_share > 0.5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)

    @settings(max_examples=20, deadline=None)
    @given(z1=st.floats(0, 1.4), delta=st.floats(0.1, 1.5))
    def test_effective_distinct_decreases_with_skew(self, z1, delta):
        """The mechanism behind Figure 13: more skew, fewer effective
        distinct values."""
        lower = effective_distinct(5_000, 500, z1)
        higher = effective_distinct(5_000, 500, z1 + delta)
        assert higher <= lower + 1e-6


@pytest.mark.parametrize(
    "make", [make_lineitem, make_sales, make_neighboring_seq, make_customers]
)
def test_string_columns_are_tight_utf8_bytes(make):
    """Every string column is ``S``, as wide as its longest value."""
    table = make(2_000)
    strings = [table[c] for c in table.column_names if table[c].dtype.kind in "SU"]
    assert strings
    for column in strings:
        assert column.dtype.kind == "S"
        assert column.dtype.itemsize == np.char.str_len(column).max()


class TestLineitem:
    @pytest.fixture(scope="class")
    def table(self):
        return make_lineitem(30_000)

    def test_schema(self, table):
        for column in LINEITEM_SC_COLUMNS:
            assert column in table
        assert table.num_rows == 30_000

    def test_cardinalities(self, table):
        def distinct(col):
            return len(np.unique(table[col]))

        assert distinct("l_returnflag") == 3
        assert distinct("l_linestatus") == 2
        assert distinct("l_linenumber") == 7
        assert distinct("l_shipmode") == 7
        assert distinct("l_shipinstruct") == 4
        assert distinct("l_orderkey") > 4_000
        assert distinct("l_comment") > 15_000

    def test_date_correlation(self, table):
        """Receipt follows ship; the pair is far smaller than the
        product (what makes the paper's date merge profitable)."""
        ship, receipt = table["l_shipdate"], table["l_receiptdate"]
        assert np.all(receipt > ship)
        pair = len(
            np.unique(ship.astype(np.int64) * 100_000 + receipt)
        )
        singles_product = len(np.unique(ship)) * len(np.unique(receipt))
        assert pair < singles_product / 3
        assert pair < table.num_rows / 2

    def test_supplier_part_correlation(self, table):
        part_supp = len(
            np.unique(
                table["l_partkey"].astype(np.int64) * 1_000_000
                + table["l_suppkey"]
            )
        )
        assert part_supp <= 4 * len(np.unique(table["l_partkey"]))

    def test_deterministic(self):
        t1 = make_lineitem(1_000, seed=5)
        t2 = make_lineitem(1_000, seed=5)
        assert list(t1["l_orderkey"]) == list(t2["l_orderkey"])

    def test_skew_reduces_distincts(self):
        flat = make_lineitem(20_000, z=0.0)
        skewed = make_lineitem(20_000, z=2.5)
        for column in ("l_partkey", "l_shipdate"):
            assert len(np.unique(skewed[column])) < len(
                np.unique(flat[column])
            )


class TestSales:
    @pytest.fixture(scope="class")
    def table(self):
        return make_sales(20_000)

    def test_schema(self, table):
        assert set(SALES_COLUMNS) <= set(table.column_names)

    def test_geo_hierarchy_functional(self, table):
        """store determines city (hierarchies merge well)."""
        store, city = table["store_id"], table["city"]
        mapping = {}
        for s, c in zip(store, city):
            assert mapping.setdefault(int(s), int(c)) == int(c)

    def test_product_hierarchy_functional(self, table):
        product, brand = table["product_id"], table["brand"]
        mapping = {}
        for p, b in zip(product, brand):
            assert mapping.setdefault(int(p), int(b)) == int(b)


class TestNref:
    @pytest.fixture(scope="class")
    def table(self):
        return make_neighboring_seq(20_000)

    def test_schema(self, table):
        assert set(NREF_COLUMNS) <= set(table.column_names)

    def test_cluster_follows_sequence(self, table):
        seq, cluster = table["seq_id"], table["cluster_id"]
        mapping = {}
        for s, c in zip(seq, cluster):
            assert mapping.setdefault(int(s), int(c)) == int(c)

    def test_skewed_by_default(self, table):
        organisms, counts = np.unique(table["organism"], return_counts=True)
        assert counts.max() > 3 * counts.mean()


class TestCustomers:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.workloads.customers import make_customers

        return make_customers(10_000, duplicate_rate=0.02)

    def test_schema(self, table):
        assert set(table.column_names) == {
            "last_name", "first_name", "middle_initial", "gender",
            "address", "city", "state", "zip",
        }

    def test_null_rates_near_targets(self, table):
        from repro.stats.column_stats import exact_column_stats

        middle = exact_column_stats(table, "middle_initial")
        assert 0.10 < middle.null_fraction < 0.20
        zipcode = exact_column_stats(table, "zip")
        assert 0.003 < zipcode.null_fraction < 0.03

    def test_suspicious_state_present(self, table):
        assert b"XX" in set(table["state"])

    def test_duplicates_defeat_key_check(self, table):
        from repro.engine.aggregation import AggregateSpec, group_by

        groups = group_by(
            table,
            ["last_name", "first_name", "middle_initial", "zip"],
            [AggregateSpec.count_star()],
        )
        assert int((groups["cnt"] > 1).sum()) > 0

    def test_no_duplicates_by_default(self):
        from repro.workloads.customers import make_customers
        from repro.engine.aggregation import AggregateSpec, group_by

        clean = make_customers(3_000)
        groups = group_by(
            clean,
            ["last_name", "first_name", "middle_initial", "zip", "address"],
            [AggregateSpec.count_star()],
        )
        assert int((groups["cnt"] > 1).sum()) == 0
