"""Unit tests for the physical plan model (operators and rendering)."""

import pytest

from repro.physical.plan import (
    CubeExpand,
    DropTemp,
    HashGroupBy,
    IndexScan,
    Materialize,
    PhysicalPipeline,
    PhysicalPlan,
    PhysicalPlanError,
    PhysicalWave,
    Reaggregate,
    RollupExpand,
    Scan,
    SortGroupBy,
)


def small_plan(waves=False, budget=None):
    ops = (
        Scan(op_id=0, table="r", est_rows=100.0, est_cost=800.0),
        HashGroupBy(
            op_id=1,
            source=0,
            keys=("a", "b"),
            output="tmp__a__b",
            query=("a", "b"),
            est_rows=10.0,
            est_cost=240.0,
            est_mem_bytes=160.0,
        ),
        Materialize(op_id=2, source=1, output="tmp__a__b", est_rows=10.0),
        Reaggregate(
            op_id=3,
            source=2,
            keys=("a",),
            output="tmp__a",
            query=("a",),
            strategy="sort",
        ),
        DropTemp(op_id=4, temp="tmp__a__b"),
    )
    pipelines = (
        PhysicalPipeline(
            ops=(0, 1, 2), label="(a,b)", kind="group_by", materialized=True
        ),
        PhysicalPipeline(ops=(3,), label="(a)", kind="group_by", depth=1),
        PhysicalPipeline(ops=(4,), label="(a,b)", kind="drop", depth=0),
    )
    return PhysicalPlan(
        relation="r",
        operators=ops,
        pipelines=pipelines,
        waves=(
            (
                PhysicalWave(0, (0,)),
                PhysicalWave(1, (1,), drops=(2,)),
            )
            if waves
            else ()
        ),
        memory_budget_bytes=budget,
        mode="wavefront" if waves else "serial",
    )


class TestOperators:
    def test_op_ids_must_match_positions(self):
        with pytest.raises(PhysicalPlanError, match="position 0 carries id 7"):
            PhysicalPlan(
                relation="r",
                operators=(Scan(op_id=7, table="r"),),
                pipelines=(
                    PhysicalPipeline(ops=(7,), label="x", kind="group_by"),
                ),
            )

    def test_unknown_op_id_rejected(self):
        plan = small_plan()
        with pytest.raises(PhysicalPlanError, match="unknown operator id"):
            plan.op(99)

    def test_inputs_edges(self):
        plan = small_plan()
        assert plan.op(0).inputs() == ()
        assert plan.op(1).inputs() == (0,)
        assert plan.op(3).inputs() == (2,)

    def test_grouping_ops_enumeration(self):
        plan = small_plan()
        kinds = [type(op).__name__ for op in plan.grouping_ops()]
        assert kinds == ["HashGroupBy", "Reaggregate"]

    def test_compute_pipelines_exclude_drops(self):
        plan = small_plan()
        assert len(plan.compute_pipelines()) == 2

    def test_describe_strings(self):
        assert "Scan r" in Scan(op_id=0, table="r").describe()
        ix = IndexScan(op_id=0, table="r", index="ix_a", sorted_prefix=True)
        assert "[sorted prefix]" in ix.describe()
        sort = SortGroupBy(
            op_id=0, source=0, keys=("a",), output="t", input_sorted=True
        )
        assert "[input sorted]" in sort.describe()
        part = HashGroupBy(
            op_id=0, source=0, keys=("a",), output="t", partitions=4
        )
        assert "x4 partitions" in part.describe()
        cube = CubeExpand(op_id=0, source=0, queries=(("a",), ("b",)))
        assert "2 covered groupings" in cube.describe()
        rollup = RollupExpand(
            op_id=0, source=0, order=("a", "b"), answers=(("a",),)
        )
        assert "a > b" in rollup.describe()


class TestRender:
    def test_render_serial(self):
        text = small_plan().render()
        assert "mode=serial" in text
        assert "HashGroupBy (a,b) -> tmp__a__b" in text
        assert "[answers query]" in text
        assert "rows≈10" in text
        assert "cost≈240" in text
        assert "mem≈160B" in text
        assert "DropTemp tmp__a__b" in text

    def test_render_parallel_and_budget(self):
        text = small_plan(waves=True, budget=4096.0).render()
        assert "mode=wavefront (2 waves)" in text
        assert "budget=4096B" in text
