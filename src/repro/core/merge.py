"""The SubPlanMerge operator (Section 4.1, Figures 3 and 4).

Merging two sub-plans P1 (rooted at v1) and P2 (rooted at v2) generates
new candidate sub-plans rooted at u = v1 ∪ v2 — "the smallest relation
from which both v1 and v2 can be computed":

* type (a): the children of v1 and v2 are computed directly from u,
  avoiding the cost of computing and materializing v1 and v2 themselves.
  Only legal when neither v1 nor v2 is a required node.
* type (b): both v1 and v2 are computed and materialized from u.  This
  is the only type used under the binary-tree restriction (Section 4.2).
* type (c): v1 is kept, v2 is elided (its children hang off u).
* type (d): v2 is kept, v1 is elided.

When one root subsumes the other (v1 ⊆ v2 or v2 ⊆ v1) the four cases
degenerate into computing the smaller from the larger.

With the Section 7.1 extension enabled, merging also proposes replacing
u with CUBE(u) or ROLLUP(u), answering every required query in the two
subtrees directly — unless u is itself required, since its own sub-plan
still answers it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import NodeKind, PlanNode, SubPlan


@dataclass(frozen=True)
class MergeOptions:
    """Which candidate shapes SubPlanMerge may produce.

    Args:
        merge_types: subset of 'a', 'b', 'c', 'd' (Figure 4).  The
            binary-tree restriction of Section 4.2 is ('b',).
        enable_cube: also propose CUBE(v1 ∪ v2) candidates (Section 7.1).
        enable_rollup: also propose ROLLUP candidates when the covered
            queries form a chain (Section 7.1).
        cube_max_columns: do not propose CUBE above this width (the
            lattice is exponential in it).
    """

    merge_types: tuple[str, ...] = ("a", "b", "c", "d")
    enable_cube: bool = False
    enable_rollup: bool = False
    cube_max_columns: int = 5


def subplan_merge(
    p1: SubPlan,
    p2: SubPlan,
    required: frozenset[frozenset[str]],
    options: MergeOptions | None = None,
) -> list[SubPlan]:
    """Generate the candidate sub-plans for merging ``p1`` and ``p2``.

    Args:
        p1, p2: sub-plans with plain GROUP_BY roots.
        required: the input query set S (determines required flags).
        options: shape restrictions; defaults to all four merge types.

    Returns:
        Candidate sub-plans, possibly empty (e.g. type (b) only and the
        roots are identical).
    """
    options = options or MergeOptions()
    if p1.node.kind is not NodeKind.GROUP_BY or p2.node.kind is not NodeKind.GROUP_BY:
        return []

    v1, v2 = p1.node.columns, p2.node.columns
    if v1 == v2:
        merged = SubPlan(
            p1.node,
            p1.children + p2.children,
            p1.required or p2.required,
        )
        return [merged]
    if v1 < v2:
        return [_subsume(p2, p1)]
    if v2 < v1:
        return [_subsume(p1, p2)]

    union = v1 | v2
    union_node = PlanNode(union)
    union_required = union in required
    candidates: list[SubPlan] = []

    if "b" in options.merge_types:
        candidates.append(SubPlan(union_node, (p1, p2), union_required))
    if "a" in options.merge_types and not p1.required and not p2.required:
        candidates.append(
            SubPlan(union_node, p1.children + p2.children, union_required)
        )
    if "c" in options.merge_types and not p2.required:
        candidates.append(
            SubPlan(union_node, (p1,) + p2.children, union_required)
        )
    if "d" in options.merge_types and not p1.required:
        candidates.append(
            SubPlan(union_node, p1.children + (p2,), union_required)
        )

    if union_required:
        # The union's own sub-plan is still live elsewhere in the forest
        # (neither subtree answers it).  A plain root at the union merges
        # with it later; a CUBE / ROLLUP root is never merged again, so it
        # would answer the union a second time.
        return _dedupe(candidates)
    if options.enable_cube or options.enable_rollup:
        answered = frozenset(p1.answered_queries() | p2.answered_queries())
        if options.enable_cube and len(union) <= options.cube_max_columns:
            cube_node = PlanNode(union, NodeKind.CUBE)
            candidates.append(
                SubPlan(cube_node, (), False, direct_answers=answered)
            )
        if options.enable_rollup:
            rollup = _rollup_candidate(union, answered)
            if rollup is not None:
                candidates.append(rollup)
    return _dedupe(candidates)


def _subsume(larger: SubPlan, smaller: SubPlan) -> SubPlan:
    """The degenerate merge: compute the smaller root from the larger."""
    return SubPlan(
        larger.node,
        larger.children + (smaller,),
        larger.required,
        larger.direct_answers,
    )


def _rollup_candidate(
    union: frozenset[str], answered: frozenset[frozenset[str]]
) -> SubPlan | None:
    """Build a ROLLUP node when the answered queries form a chain.

    ROLLUP(c1, ..., ck) answers exactly the prefixes (c1), (c1,c2), ...
    so the answered sets must be totally ordered by inclusion and each
    must be realizable as a prefix of some ordering of ``union``.
    """
    chain = sorted(answered, key=len)
    previous: frozenset[str] = frozenset()
    order: list[str] = []
    for query in chain:
        if not previous < query:
            return None
        order.extend(sorted(query - previous))
        previous = query
    order.extend(sorted(union - previous))
    node = PlanNode(union, NodeKind.ROLLUP, tuple(order))
    if not all(node.answers(query) for query in answered):
        return None
    return SubPlan(node, (), False, direct_answers=answered)


def _dedupe(candidates: list[SubPlan]) -> list[SubPlan]:
    seen = set()
    unique = []
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique
