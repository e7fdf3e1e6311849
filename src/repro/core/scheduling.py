"""Turning a logical plan into an ordered sequence of executable steps.

The executor consumes a linear schedule of Compute and Drop steps.  The
schedule can follow the storage-minimizing BF/DF marking of Section
4.4.1 (:func:`storage_minimizing_schedule`) or a plain depth-first order
(:func:`depth_first_schedule`); either way, a temporary table is dropped
as soon as all of its children have been computed.

:func:`depth_ranks` exposes the plan's *dependency structure* instead of
a linear order: the compute steps grouped by depth, every step of one
rank independent of every other (their parents were all materialized by
earlier ranks).  The lowering maps these ranks onto a parallel plan's
waves, and the engine cost model prices them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.plan import LogicalPlan, PlanNode, SubPlan
from repro.core.storage import SizeFn, StorageMark, mark_storage


@dataclass(frozen=True)
class Step:
    """One executor action.

    ``action`` is 'compute' (run the node's query against its parent,
    materializing when the node has children) or 'drop' (drop the
    node's temporary table).
    """

    action: str
    node: PlanNode
    parent: PlanNode | None = None
    materialize: bool = False
    required: bool = False
    direct_answers: frozenset[frozenset[str]] = frozenset()

    def describe(self) -> str:
        if self.action == "drop":
            return f"DROP {self.node.describe()}"
        source = self.parent.describe() if self.parent else "R"
        spool = " INTO temp" if self.materialize else ""
        return f"COMPUTE {self.node.describe()} FROM {source}{spool}"


def _compute_step(subplan: SubPlan, parent: PlanNode | None) -> Step:
    return Step(
        action="compute",
        node=subplan.node,
        parent=parent,
        materialize=subplan.is_materialized,
        required=subplan.required,
        direct_answers=subplan.direct_answers,
    )


def _drop_step(subplan: SubPlan) -> Step:
    return Step(action="drop", node=subplan.node)


def _depth_first(subplan: SubPlan, parent: PlanNode | None) -> Iterator[Step]:
    yield _compute_step(subplan, parent)
    for child in subplan.children:
        yield from _depth_first(child, subplan.node)
    if subplan.is_materialized:
        yield _drop_step(subplan)


def depth_first_schedule(plan: LogicalPlan) -> list[Step]:
    """Simple schedule: fully finish each subtree before its sibling."""
    steps: list[Step] = []
    for subplan in plan.subplans:
        steps.extend(_depth_first(subplan, None))
    return steps


def depth_ranks(plan: LogicalPlan) -> list[tuple[Step, ...]]:
    """The plan's compute steps grouped into ranks by depth.

    Rank d holds every node whose path from the base relation has d
    edges: all of rank d's sources were materialized by rank d-1, so
    the steps within one rank share no dependencies and can execute
    concurrently.  A materialized node of rank d may be dropped once
    rank d+1 — which holds all of its children — has run.

    Steps within a rank are ordered deterministically (by node
    description), so waves — and the executor's merged metrics — are
    reproducible run to run.
    """
    ranks: list[list[Step]] = []

    def assign(subplan: SubPlan, parent: PlanNode | None, depth: int) -> None:
        while len(ranks) <= depth:
            ranks.append([])
        ranks[depth].append(_compute_step(subplan, parent))
        for child in subplan.children:
            assign(child, subplan.node, depth + 1)

    for subplan in plan.subplans:
        assign(subplan, None, 0)
    return [
        tuple(sorted(rank, key=lambda step: step.node.describe()))
        for rank in ranks
    ]


def _marked(mark: StorageMark, parent: PlanNode | None) -> Iterator[Step]:
    subplan = mark.subplan
    yield _compute_step(subplan, parent)
    if not mark.children:
        return
    if mark.strategy == "BF":
        # Compute every child query first, drop this node, then recurse
        # into each child's own subtree.
        for child in mark.children:
            yield _compute_step(child.subplan, subplan.node)
        yield _drop_step(subplan)
        for child in mark.children:
            yield from _descend(child)
    else:
        # Depth-first: finish each child subtree before the next; this
        # node stays materialized until the last child is done.
        for child in mark.children:
            yield from _marked(child, subplan.node)
        yield _drop_step(subplan)


def _descend(mark: StorageMark) -> Iterator[Step]:
    """Emit a child's subtree when its own compute step already ran."""
    subplan = mark.subplan
    if not mark.children:
        return
    if mark.strategy == "BF":
        for child in mark.children:
            yield _compute_step(child.subplan, subplan.node)
        yield _drop_step(subplan)
        for child in mark.children:
            yield from _descend(child)
    else:
        for child in mark.children:
            yield from _marked(child, subplan.node)
        yield _drop_step(subplan)


def storage_minimizing_schedule(
    plan: LogicalPlan, size_fn: SizeFn
) -> list[Step]:
    """Schedule obeying the BF/DF marking of Section 4.4.1."""
    steps: list[Step] = []
    for subplan in plan.subplans:
        mark = mark_storage(subplan, size_fn)
        steps.extend(_marked(mark, None))
    return steps


def peak_storage_of_schedule(steps: list[Step], size_fn_node) -> float:
    """Simulate a schedule and return its actual peak temp storage.

    Args:
        steps: the schedule.
        size_fn_node: maps a PlanNode to its materialized size in bytes.
    """
    live: dict[PlanNode, float] = {}
    current = 0.0
    peak = 0.0
    for step in steps:
        if step.action == "compute" and step.materialize:
            size = size_fn_node(step.node)
            live[step.node] = size
            current += size
            peak = max(peak, current)
        elif step.action == "drop":
            current -= live.pop(step.node, 0.0)
    return peak
