"""Logical plans for computing a set of Group By queries (Section 3.1).

A *logical plan* is a tree rooted at the base relation R whose other
nodes are Group By (or CUBE / ROLLUP, Section 7.1) queries.  An edge
u -> v means v is computed by scanning u; any non-root node with children
must be materialized as a temporary table first.  A *sub-plan* is a
subtree whose root is computed directly from R.

Plans are immutable; the optimizer builds new trees instead of mutating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Sequence

from repro.core.columnset import format_columns


class PlanError(Exception):
    """An invalid logical plan was constructed or validated."""


class NodeKind(enum.Enum):
    """What operator a plan node runs (Section 7.1 adds CUBE/ROLLUP)."""

    GROUP_BY = "group_by"
    CUBE = "cube"
    ROLLUP = "rollup"


@dataclass(frozen=True)
class PlanNode:
    """One query in a logical plan.

    Args:
        columns: the grouping column set of the node.
        kind: GROUP_BY computes exactly ``columns``; CUBE computes every
            subset of ``columns``; ROLLUP computes every prefix of
            ``rollup_order``.
        rollup_order: column order for ROLLUP nodes.
    """

    columns: frozenset[str]
    kind: NodeKind = NodeKind.GROUP_BY
    rollup_order: tuple[str, ...] = ()
    #: Hash of the fields, set per instance by ``__post_init__``; typed
    #: ClassVar only so that it is not a dataclass field (no part of
    #: ``==``, ``repr``, ``asdict`` or the constructor).
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        if not self.columns:
            raise PlanError("a plan node needs at least one column")
        if self.kind is NodeKind.ROLLUP:
            if frozenset(self.rollup_order) != self.columns:
                raise PlanError(
                    "ROLLUP node order must cover exactly its columns"
                )
        object.__setattr__(
            self, "_hash", hash((self.columns, self.kind, self.rollup_order))
        )

    def __hash__(self) -> int:
        # Nodes key every coster memo; hashing the fields once keeps a
        # dict lookup from re-hashing the tuple and the enum each time.
        return self._hash

    def __reduce__(self) -> tuple[object, ...]:
        # Rebuild through __init__: string hashes differ between
        # processes, so the cached value must never travel in a pickle.
        return (PlanNode, (self.columns, self.kind, self.rollup_order))

    def answers(self, query: frozenset[str]) -> bool:
        """Does executing this node produce the result of ``query``?"""
        if self.kind is NodeKind.GROUP_BY:
            return query == self.columns
        if self.kind is NodeKind.CUBE:
            return query <= self.columns
        prefixes = {
            frozenset(self.rollup_order[:i])
            for i in range(1, len(self.rollup_order) + 1)
        }
        return query in prefixes

    def describe(self) -> str:
        if self.kind is NodeKind.GROUP_BY:
            return format_columns(self.columns)
        if self.kind is NodeKind.CUBE:
            return f"CUBE{format_columns(self.columns)}"
        return "ROLLUP(" + ",".join(self.rollup_order) + ")"


@dataclass(frozen=True)
class SubPlan:
    """A subtree of a logical plan.

    Args:
        node: the query at the root of this subtree.
        children: subtrees computed from this node's materialized result.
        required: True when ``node.columns`` itself is one of the input
            queries (for GROUP_BY nodes).
        direct_answers: for CUBE / ROLLUP nodes, the required queries the
            operator answers directly without child queries.
    """

    node: PlanNode
    children: tuple["SubPlan", ...] = ()
    required: bool = False
    direct_answers: frozenset[frozenset[str]] = frozenset()
    #: As :attr:`PlanNode._hash`: per instance, not a dataclass field.
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        for child in self.children:
            if not child.node.columns < self.node.columns:
                raise PlanError(
                    f"child {child.node.describe()} is not a strict subset "
                    f"of parent {self.node.describe()}"
                )
        for query in self.direct_answers:
            if not self.node.answers(query):
                raise PlanError(
                    f"node {self.node.describe()} cannot answer "
                    f"{format_columns(query)}"
                )
        object.__setattr__(
            self,
            "_hash",
            hash(
                (self.node, self.children, self.required, self.direct_answers)
            ),
        )

    def __hash__(self) -> int:
        # Children are hashed when they are built, so this costs one
        # tuple over their cached values instead of a walk of the subtree
        # on every memo lookup.
        return self._hash

    def __reduce__(self) -> tuple[object, ...]:
        return (
            SubPlan,
            (self.node, self.children, self.required, self.direct_answers),
        )

    @classmethod
    def leaf(cls, columns: frozenset[str], required: bool = True) -> "SubPlan":
        """A single required Group By computed directly from its parent."""
        return cls(PlanNode(frozenset(columns)), (), required)

    @property
    def columns(self) -> frozenset[str]:
        return self.node.columns

    @property
    def is_materialized(self) -> bool:
        """Intermediate (non-leaf) nodes must be spooled to temp tables."""
        return bool(self.children)

    def iter_subplans(self) -> Iterator["SubPlan"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.iter_subplans()

    def iter_edges(self) -> Iterator[tuple["SubPlan", "SubPlan"]]:
        """All (parent, child) edges within this subtree."""
        for child in self.children:
            yield (self, child)
            yield from child.iter_edges()

    def answered_queries(self) -> set[frozenset[str]]:
        """Required queries answered anywhere in this subtree."""
        answered: set[frozenset[str]] = set()
        for subplan in self.iter_subplans():
            if subplan.node.kind is NodeKind.GROUP_BY:
                if subplan.required:
                    answered.add(subplan.node.columns)
            answered.update(subplan.direct_answers)
        return answered

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)

    def with_children(self, children: Sequence["SubPlan"]) -> "SubPlan":
        return SubPlan(self.node, tuple(children), self.required, self.direct_answers)

    def render(self, indent: str = "") -> str:
        """ASCII tree rendering (required nodes marked with ``*``)."""
        marker = "*" if (self.required or self.direct_answers) else ""
        spool = " [spool]" if self.is_materialized else ""
        lines = [f"{indent}{self.node.describe()}{marker}{spool}"]
        for i, child in enumerate(self.children):
            last = i == len(self.children) - 1
            branch = "└── " if last else "├── "
            extension = "    " if last else "│   "
            child_lines = child.render().splitlines()
            lines.append(f"{indent}{branch}{child_lines[0]}")
            lines.extend(f"{indent}{extension}{line}" for line in child_lines[1:])
        return "\n".join(lines)


@dataclass(frozen=True)
class LogicalPlan:
    """A complete plan: a forest of sub-plans, each computed from R.

    Args:
        relation: name of the base relation R.
        subplans: the sub-plans, each rooted at a child of R.
        required: the input queries S this plan must answer.
    """

    relation: str
    subplans: tuple[SubPlan, ...]
    required: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def iter_subplans(self) -> Iterator[SubPlan]:
        """Pre-order traversal across all sub-plans."""
        for subplan in self.subplans:
            yield from subplan.iter_subplans()

    def iter_edges(self) -> Iterator[tuple[SubPlan | None, SubPlan]]:
        """All edges; parent None denotes the base relation R."""
        for subplan in self.subplans:
            yield (None, subplan)
            yield from subplan.iter_edges()

    def node_count(self) -> int:
        return sum(subplan.node_count() for subplan in self.subplans)

    def materialized_nodes(self) -> list[SubPlan]:
        return [s for s in self.iter_subplans() if s.is_materialized]

    def answered_queries(self) -> set[frozenset[str]]:
        answered: set[frozenset[str]] = set()
        for subplan in self.subplans:
            answered.update(subplan.answered_queries())
        return answered

    def validate(self) -> None:
        """Run the context-free verifier rules over this plan.

        Delegates to :mod:`repro.analysis` (rules PV001-PV008): edge
        column containment, required-query coverage and uniqueness,
        answer consistency, spool consistency, and ROLLUP order.

        Raises:
            PlanError: when any error-severity rule fires (the raised
                exception is a :class:`PlanVerificationError`, a
                PlanError subclass naming the violated rules).
        """
        # Imported here: repro.analysis builds on this module.
        from repro.analysis.verifier import STRUCTURAL_RULES, check_plan

        check_plan(self, rules=STRUCTURAL_RULES)

    def render(self) -> str:
        lines = [self.relation]
        for i, subplan in enumerate(self.subplans):
            last = i == len(self.subplans) - 1
            branch = "└── " if last else "├── "
            extension = "    " if last else "│   "
            sub_lines = subplan.render().splitlines()
            lines.append(f"{branch}{sub_lines[0]}")
            lines.extend(f"{extension}{line}" for line in sub_lines[1:])
        return "\n".join(lines)

    def replace_subplans(
        self, remove: Iterable[SubPlan], add: Iterable[SubPlan]
    ) -> "LogicalPlan":
        """Return a plan with ``remove`` sub-plans swapped for ``add``."""
        removed_ids = {id(s) for s in remove}
        kept = [s for s in self.subplans if id(s) not in removed_ids]
        return LogicalPlan(self.relation, tuple(kept) + tuple(add), self.required)


def naive_plan(relation: str, required: Iterable[frozenset[str]]) -> LogicalPlan:
    """The naive plan: every required query computed directly from R.

    This is both the baseline the paper compares against and the starting
    point of the hill-climbing optimizer (Figure 5, step 1).
    """
    required_sets = frozenset(frozenset(q) for q in required)
    ordered = sorted(required_sets, key=lambda q: (len(q), sorted(q)))
    subplans = tuple(SubPlan.leaf(q) for q in ordered)
    return LogicalPlan(relation, subplans, required_sets)
