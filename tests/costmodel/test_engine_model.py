"""Unit tests for the engine ("query optimizer") cost model."""

import pytest

from repro.core.plan import PlanNode, naive_plan
from repro.costmodel.engine_model import (
    EngineCostModel,
    HASH_CPU,
    HASH_DOMAIN_LIMIT,
    READ_BYTE,
    WAVEFRONT_DISPATCH_COST,
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


class TestExecutionModeChoice:
    """``auto`` prices a plan built here as serial and as wavefront."""

    @staticmethod
    def _model(rows, cards, row_width=200.0):
        estimator = FakeEstimator(rows, cards)
        return EngineCostModel(estimator, base_row_width=row_width)

    @staticmethod
    def _plan(queries):
        return naive_plan("t", [frozenset(q) for q in queries])

    def _narrow(self, rows):
        """Four groupings of ten values each over 200-byte rows."""
        cards = {c: 10.0 for c in "abcd"}
        return self._model(rows, cards), self._plan("abcd")

    def _wide(self, rows):
        """Ten two-column groupings over wide domains (2000^2, still
        within the hash regime's limit)."""
        columns = "abcde"
        cards = {c: 2_000.0 for c in columns}
        pairs = [a + b for i, a in enumerate(columns) for b in columns[i + 1:]]
        return self._model(rows, cards), self._plan(pairs)

    def test_small_input_stays_serial(self):
        from repro.costmodel.engine_model import MORSEL_MIN_ROWS

        model, plan = self._narrow(MORSEL_MIN_ROWS - 1)
        choice = model.execution_mode_choice(plan, parallelism=4)
        assert choice.mode == "serial"
        assert "floor" in choice.reason

    def test_single_grouping_stays_serial(self):
        model, _ = self._narrow(1_000_000)
        choice = model.execution_mode_choice(self._plan(["a"]), parallelism=4)
        assert choice.mode == "serial"

    #: One full read of ``_narrow``'s 200-byte rows at 1M rows.
    NARROW_READ = 1_000_000 * 200.0 * READ_BYTE

    def test_one_worker_stays_serial(self):
        model, plan = self._narrow(1_000_000)
        choice = model.execution_mode_choice(plan, parallelism=1)
        assert choice.mode == "serial"
        # The four groupings share one read of R; each pipeline pays
        # its edge less that read.
        assert choice.wavefront_cost == pytest.approx(
            choice.serial_cost
            - 3 * self.NARROW_READ
            + 4 * WAVEFRONT_DISPATCH_COST
        )

    def test_memory_budget_stays_serial(self):
        model, plan = self._narrow(1_000_000)
        choice = model.execution_mode_choice(
            plan, parallelism=4, memory_budget_bytes=1e9
        )
        assert choice.mode == "serial"
        assert "budget" in choice.reason
        assert choice.wavefront_cost < choice.serial_cost

    def test_shared_read_picks_wavefront(self):
        """Four workers: the shared read leaves each pipeline only its
        grouping CPU, and four pipelines fill the four workers."""
        model, plan = self._narrow(1_000_000)
        choice = model.execution_mode_choice(plan, parallelism=4)
        assert choice.mode == "wavefront"
        cpu = 1_000_000 * HASH_CPU
        assert choice.serial_cost == pytest.approx(
            4 * (self.NARROW_READ + cpu)
        )
        assert choice.wavefront_cost == pytest.approx(
            self.NARROW_READ / 4 + cpu + 4 * WAVEFRONT_DISPATCH_COST
        )

    def test_eight_workers_pick_wavefront(self):
        """Eight workers and four pipelines: wavefront leaves half the
        workers idle and still pays a fraction of serial's price."""
        model, plan = self._narrow(1_000_000)
        choice = model.execution_mode_choice(plan, parallelism=8)
        assert choice.mode == "wavefront"
        cpu = 1_000_000 * HASH_CPU
        assert choice.serial_cost == pytest.approx(
            4 * (self.NARROW_READ + cpu)
        )
        # The largest pipeline (one grouping's CPU) outweighs the
        # four pipelines spread eight ways.
        assert choice.wavefront_cost == pytest.approx(
            self.NARROW_READ / 8 + cpu + 4 * WAVEFRONT_DISPATCH_COST
        )
        assert choice.wavefront_cost < choice.serial_cost

    def test_wide_domains_pick_wavefront(self):
        model, plan = self._wide(1_000_000)
        choice = model.execution_mode_choice(plan, parallelism=2)
        assert choice.mode == "wavefront"
        cpu = 1_000_000 * 2 * HASH_CPU
        assert choice.serial_cost == pytest.approx(
            10 * (self.NARROW_READ + cpu)
        )
        assert choice.wavefront_cost == pytest.approx(
            self.NARROW_READ / 2 + 10 * cpu / 2
            + 10 * WAVEFRONT_DISPATCH_COST
        )

    def test_wavefront_pays_its_largest_pipeline(self):
        """Eight workers cannot split a pipeline: a wave of two pays the
        shared read spread eight ways, then the larger pipeline less
        that read — not an eighth of the pair."""
        model = self._model(1_000_000, {"a": 10.0, "b": 10.0})
        larger = model.edge_cost(None, PlanNode(fs("a", "b")), False)
        choice = model.execution_mode_choice(
            self._plan(["ab", "a"]), parallelism=8
        )
        assert choice.wavefront_cost == pytest.approx(
            self.NARROW_READ / 8
            + larger
            - self.NARROW_READ
            + 2 * WAVEFRONT_DISPATCH_COST
        )

    def test_default_mode_mirrors_floors(self):
        from repro.costmodel.engine_model import (
            MORSEL_MIN_GROUPINGS,
            MORSEL_MIN_ROWS,
            default_execution_mode,
        )

        assert default_execution_mode(
            MORSEL_MIN_ROWS, MORSEL_MIN_GROUPINGS, 2
        ) == "wavefront"
        assert default_execution_mode(
            MORSEL_MIN_ROWS - 1, MORSEL_MIN_GROUPINGS, 2
        ) == "serial"
        assert default_execution_mode(
            MORSEL_MIN_ROWS, MORSEL_MIN_GROUPINGS - 1, 2
        ) == "serial"


class TestBenchmarkPlanModes:
    """``auto`` on the two plan workloads of the end-to-end benchmark,
    at its scale and seed on two CPUs: both price wavefront cheaper
    than serial.  Pins the prices against a change that would quietly
    send either workload back to serial."""

    @pytest.mark.parametrize("workload", ["sales_tc", "lineitem_sc"])
    def test_auto_picks_wavefront(self, workload, monkeypatch):
        from repro.api import Session
        from repro.engine import executor, morsel
        from repro.workloads.queries import (
            single_column_queries,
            two_column_queries,
        )
        from repro.workloads.sales import SALES_COLUMNS, make_sales
        from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem

        monkeypatch.setattr(morsel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
        if workload == "sales_tc":
            table = make_sales(250_000, seed=0)
            queries = two_column_queries(SALES_COLUMNS)
        else:
            table = make_lineitem(500_000, seed=0)
            queries = single_column_queries(LINEITEM_SC_COLUMNS)
        session = Session.for_table(table, statistics="sampled", seed=0)
        plan = session.optimize(queries).plan
        model = EngineCostModel(
            session.estimator, catalog=session.catalog,
            base_table=session.base_table,
        )
        choice = model.execution_mode_choice(plan, parallelism=2)
        assert choice.mode == "wavefront", choice.reason
        assert session.lower(plan).mode == "wavefront"
