"""Unit tests for the engine ("query optimizer") cost model."""

from repro.core.plan import PlanNode
from repro.costmodel.engine_model import (
    EngineCostModel,
    HASH_DOMAIN_LIMIT,
    READ_BYTE,
)
from repro.engine.catalog import Catalog
from repro.engine.indexes import IndexSpec
from repro.engine.table import Table
from tests.core.support import FakeEstimator


def fs(*cols):
    return frozenset(cols)


def make_catalog(rows=100):
    table = Table(
        "t",
        {
            "a": list(range(rows)),
            "b": [i % 7 for i in range(rows)],
            "c": [i % 3 for i in range(rows)],
        },
    )
    catalog = Catalog()
    catalog.add_table(table)
    return catalog, table


class TestScanCosts:
    def test_base_scan_uses_full_row_width(self):
        catalog, table = make_catalog()
        estimator = FakeEstimator(100, {"a": 100, "b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        narrow = model.edge_cost(None, PlanNode(fs("c")), False)
        wide = model.edge_cost(None, PlanNode(fs("a")), False)
        # Row-store semantics: a single-column Group By still reads the
        # whole row, so column choice does not change scan bytes.
        assert narrow == wide

    def test_intermediate_cheaper_than_base(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(100, {"a": 100, "b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        from_base = model.edge_cost(None, PlanNode(fs("c")), False)
        parent = PlanNode(fs("b", "c"))
        from_temp = model.edge_cost(parent, PlanNode(fs("c")), False)
        assert from_temp < from_base

    def test_materialization_charges_write_and_encode(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(100, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        node = PlanNode(fs("b", "c"))
        plain = model.edge_cost(None, node, False)
        materialized = model.edge_cost(None, node, True)
        assert materialized > plain

    def test_materialization_registers_whatif(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(100, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        model.edge_cost(None, PlanNode(fs("b", "c")), True)
        hypothetical = model.whatif.lookup(fs("b", "c"))
        assert hypothetical is not None
        assert hypothetical.est_rows == 21.0

    def test_sort_regime_surcharge(self):
        catalog, _ = make_catalog()
        big = HASH_DOMAIN_LIMIT  # two such columns exceed the limit
        estimator = FakeEstimator(
            10_000, {"a": big, "b": big, "c": 3}
        )
        model = EngineCostModel(estimator, catalog, "t")
        cheap = model.edge_cost(None, PlanNode(fs("c")), False)
        heavy = model.edge_cost(None, PlanNode(fs("a", "b")), False)
        assert heavy > cheap


class TestIndexAwareness:
    def test_covering_index_cheapens_scan(self):
        catalog, table = make_catalog()
        estimator = FakeEstimator(100, {"b": 7})
        without = EngineCostModel(estimator, catalog, "t").edge_cost(
            None, PlanNode(fs("b")), False
        )
        catalog.create_index("t", IndexSpec("ix_b", ("b",)))
        with_index = EngineCostModel(estimator, catalog, "t").edge_cost(
            None, PlanNode(fs("b")), False
        )
        assert with_index < without
        # The index scan reads 8 bytes/row instead of 24.
        assert with_index < 100 * (8 * READ_BYTE) + 100 * 10_000

    def test_use_indexes_flag(self):
        catalog, _ = make_catalog()
        catalog.create_index("t", IndexSpec("ix_b", ("b",)))
        estimator = FakeEstimator(100, {"b": 7})
        ignoring = EngineCostModel(
            estimator, catalog, "t", use_indexes=False
        ).edge_cost(None, PlanNode(fs("b")), False)
        using = EngineCostModel(estimator, catalog, "t").edge_cost(
            None, PlanNode(fs("b")), False
        )
        assert using < ignoring

    def test_no_catalog_defaults(self):
        estimator = FakeEstimator(100, {"b": 7})
        model = EngineCostModel(estimator)
        assert model.edge_cost(None, PlanNode(fs("b")), False) > 0


class TestCubeRollup:
    def test_cube_cost_covers_lattice(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(1000, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        from repro.core.plan import NodeKind

        cube = PlanNode(fs("b", "c"), NodeKind.CUBE)
        plain = model.edge_cost(None, PlanNode(fs("b", "c")), True)
        assert model.edge_cost(None, cube, True) > plain

    def test_rollup_cost(self):
        catalog, _ = make_catalog()
        estimator = FakeEstimator(1000, {"b": 7, "c": 3})
        model = EngineCostModel(estimator, catalog, "t")
        from repro.core.plan import NodeKind

        rollup = PlanNode(fs("b", "c"), NodeKind.ROLLUP, ("b", "c"))
        single = model.edge_cost(None, PlanNode(fs("b", "c")), True)
        assert model.edge_cost(None, rollup, True) > single

