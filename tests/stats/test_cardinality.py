"""Unit tests for cardinality estimation and the what-if registry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.engine.dictcache import legacy_encode
from repro.stats.cardinality import (
    COUNT_WIDTH,
    ExactCardinalityEstimator,
    SampledCardinalityEstimator,
)
from repro.stats.distinct import estimate_from_profile, sample_profile
from repro.stats.sampler import TableSampler
from repro.stats.whatif import HypotheticalTable, WhatIfRegistry
from repro.workloads.queries import two_column_queries
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem
from tests.conftest import brute_force_group_by


def fs(*cols):
    return frozenset(cols)


class TestExactEstimator:
    def test_single_column(self, tiny_table):
        estimator = ExactCardinalityEstimator(tiny_table)
        assert estimator.rows(fs("a")) == 3.0
        assert estimator.rows(fs("b")) == 2.0

    def test_combination(self, tiny_table):
        estimator = ExactCardinalityEstimator(tiny_table)
        expected = len(brute_force_group_by(tiny_table, ["a", "b"]))
        assert estimator.rows(fs("a", "b")) == expected

    def test_empty_set_is_one(self, tiny_table):
        estimator = ExactCardinalityEstimator(tiny_table)
        assert estimator.rows(frozenset()) == 1.0

    def test_base_rows(self, tiny_table):
        assert ExactCardinalityEstimator(tiny_table).base_rows == 12

    def test_row_width_includes_count(self, tiny_table):
        estimator = ExactCardinalityEstimator(tiny_table)
        assert estimator.row_width(fs("a")) == 8 + COUNT_WIDTH

    def test_caching(self, tiny_table):
        estimator = ExactCardinalityEstimator(tiny_table)
        first = estimator.rows(fs("a", "b"))
        assert estimator.rows(fs("a", "b")) == first


class TestSampledEstimator:
    @pytest.fixture
    def table(self, random_table):
        return random_table

    def test_full_sample_is_exact(self, table):
        estimator = SampledCardinalityEstimator(
            table, sample_rows=table.num_rows
        )
        exact = ExactCardinalityEstimator(table)
        for columns in (fs("low"), fs("mid"), fs("low", "mid")):
            assert estimator.rows(columns) == exact.rows(columns)

    def test_estimates_within_table_size(self, table):
        estimator = SampledCardinalityEstimator(table, sample_rows=500)
        for columns in (fs("high"), fs("high", "mid"), fs("low")):
            assert 1 <= estimator.rows(columns) <= table.num_rows

    def test_low_cardinality_accurate(self, table):
        estimator = SampledCardinalityEstimator(table, sample_rows=1_000)
        assert estimator.rows(fs("low")) == pytest.approx(5, abs=1)

    def test_statistics_metered(self, table):
        estimator = SampledCardinalityEstimator(table, sample_rows=500)
        estimator.rows(fs("low", "mid"))
        created = estimator.created_statistics
        # Singles built first, then the pair.
        assert fs("low") in created and fs("mid") in created
        assert created[-1] == fs("low", "mid")
        assert estimator.creation_seconds > 0

    def test_statistics_created_once(self, table):
        estimator = SampledCardinalityEstimator(table, sample_rows=500)
        estimator.rows(fs("low"))
        estimator.rows(fs("low"))
        assert estimator.created_statistics.count(fs("low")) == 1

    def test_product_cap(self, table):
        estimator = SampledCardinalityEstimator(table, sample_rows=2_000)
        single_product = estimator.rows(fs("low")) * estimator.rows(fs("txt"))
        assert estimator.rows(fs("low", "txt")) <= single_product + 1e-9

    def test_near_key_not_underestimated(self, table):
        """The regression the hybrid estimator exists for: a near-key
        pair must not be underestimated by ~sqrt(N/n)."""
        estimator = SampledCardinalityEstimator(table, sample_rows=1_000)
        exact = ExactCardinalityEstimator(table)
        true_rows = exact.rows(fs("high", "mid"))
        assert estimator.rows(fs("high", "mid")) >= true_rows / 2


def reference_sample_estimates(table, column_sets, seed):
    """The estimates as a sample ``Table`` re-encoded by ``np.unique``
    gives them: the statistics path before the sample became row
    indices.  Single columns first, so each set's cap is at hand."""
    sample = table.take(
        TableSampler(table, sample_rows=10_000, seed=seed).indices()
    )
    codes = {c: legacy_encode(sample[c])[0] for c in table.column_names}
    estimates = {}

    def estimate(columns):
        stacked = np.rec.fromarrays([codes[c] for c in sorted(columns)])
        profile = sample_profile(np.unique(stacked, return_inverse=True)[1])
        value = estimate_from_profile(
            profile, sample.num_rows, table.num_rows, "hybrid"
        )
        cap = float(table.num_rows)
        if len(columns) > 1:
            product = 1.0
            for column in sorted(columns):
                product *= estimates[frozenset([column])][0]
                if product >= cap:
                    break
            cap = min(product, cap)
        return min(value, cap), profile[:2]

    for columns in sorted(column_sets, key=len):
        estimates[columns] = estimate(columns)
    return estimates


class TestSampleIsRowIndices:
    """Sample codes are the built codes at the sampled rows (or an encode
    of the sampled values alone); every estimate and ``(d, f1)`` profile
    equals the re-encoded sample ``Table``'s, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("built", [True, False])
    @pytest.mark.parametrize(
        "make", [make_sales, make_lineitem], ids=["sales", "lineitem"]
    )
    def test_estimates_equal_the_sample_table_path(self, make, built, seed):
        table = make(30_000, seed=seed)
        if built:
            table.build_dictionaries()
        columns = table.column_names
        column_sets = [frozenset([c]) for c in columns] + [
            frozenset(pair) for pair in two_column_queries(list(columns[:8]))
        ] + [frozenset(columns[:4]), frozenset(columns)]
        estimator = SampledCardinalityEstimator(table, seed=seed)
        expected = reference_sample_estimates(table, column_sets, seed)
        for columns_ in column_sets:
            want, profile = expected[columns_]
            assert estimator.rows(columns_) == want
            assert estimator.profile(columns_) == profile
        assert estimator.sample_size == min(10_000, table.num_rows)
        # Only the sampled rows were ever encoded: no dictionary was
        # built on the table that had none.
        assert all(
            (table.cached_dictionary(c) is not None) == built for c in columns
        )

    def test_plans_equal_with_and_without_built_dictionaries(self):
        plain, built = make_sales(30_000, seed=7), make_sales(30_000, seed=7)
        built.build_dictionaries()
        queries = two_column_queries(list(plain.column_names[:8]))
        runs = [
            Session.for_table(t, statistics="sampled", seed=7).optimize(queries)
            for t in (plain, built)
        ]
        assert runs[0].plan == runs[1].plan
        assert runs[0].cost == runs[1].cost


class TestWhatIf:
    def test_create_and_lookup(self):
        registry = WhatIfRegistry()
        registry.create(fs("a", "b"), 100.0, 24.0)
        table = registry.lookup(fs("b", "a"))
        assert table is not None
        assert table.est_rows == 100.0
        assert registry.calls == 1

    def test_lookup_missing(self):
        assert WhatIfRegistry().lookup(fs("a")) is None

    def test_size_and_describe(self):
        table = HypotheticalTable(fs("a"), 10.0, 16.0)
        assert table.size_bytes() == 160.0
        assert "GROUP BY (a)" in table.describe()
        assert table.name == "whatif_a"

    def test_iteration(self):
        registry = WhatIfRegistry()
        registry.create(fs("a"), 1.0, 8.0)
        registry.create(fs("b"), 2.0, 8.0)
        assert len(registry) == 2
        assert {t.est_rows for t in registry} == {1.0, 2.0}


REPO = Path(__file__).resolve().parents[2]

#: Prints, bit for bit, the products the estimator and the engine model
#: take over a three-column set of 100k-row sales.
PRODUCTS = """
from repro.costmodel.engine_model import EngineCostModel
from repro.stats.cardinality import SampledCardinalityEstimator
from repro.workloads.sales import make_sales

estimator = SampledCardinalityEstimator(make_sales(100_000))
columns = frozenset({"payment_type", "region", "ship_date"})
estimator.rows(columns)
print(repr(estimator.cap(columns)))
print(repr(EngineCostModel(estimator).grouping_domain(columns)))
"""


def test_products_do_not_follow_the_hash_seed():
    """The cap and the key domain multiply single-column estimates in
    sorted column order: in set order the cap differed in the last bit
    between hash seeds (44909.2099788303 under 1, 44909.20997883031
    under 2)."""
    printed = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", PRODUCTS],
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}",
            },
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        printed.append(done.stdout)
    assert printed[0] == printed[1]
