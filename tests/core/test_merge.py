"""Unit tests for the SubPlanMerge operator (Figure 4)."""

import pytest

from repro.core.merge import MergeOptions, subplan_merge
from repro.core.plan import NodeKind, PlanNode, SubPlan


def fs(*cols):
    return frozenset(cols)


def leaf(*cols, required=True):
    return SubPlan.leaf(fs(*cols), required=required)


def intermediate(cols, children, required=False):
    return SubPlan(PlanNode(fs(*cols)), tuple(children), required)


REQUIRED = frozenset([fs("a"), fs("b"), fs("c"), fs("d")])


class TestLeafMerges:
    def test_two_required_leaves_give_type_b_only(self):
        candidates = subplan_merge(leaf("a"), leaf("b"), REQUIRED)
        # (a) requires both non-required; (c)/(d) require one side
        # non-required — so only (b) survives for two required leaves.
        assert len(candidates) == 1
        (merged,) = candidates
        assert merged.node.columns == fs("a", "b")
        assert len(merged.children) == 2
        assert not merged.required

    def test_union_marked_required_if_in_input(self):
        required = frozenset([fs("a"), fs("b"), fs("a", "b")])
        (merged,) = subplan_merge(leaf("a"), leaf("b"), required)
        assert merged.required


class TestIntermediateMerges:
    def test_all_four_types_for_non_required_roots(self):
        p1 = intermediate(("a", "b"), [leaf("a"), leaf("b")])
        p2 = intermediate(("c", "d"), [leaf("c"), leaf("d")])
        candidates = subplan_merge(p1, p2, REQUIRED)
        assert len(candidates) == 4
        shapes = {len(c.children) for c in candidates}
        # (a): 4 grandchildren; (b): 2; (c)/(d): 3.
        assert shapes == {4, 2, 3}
        for candidate in candidates:
            assert candidate.node.columns == fs("a", "b", "c", "d")
            assert candidate.answered_queries() == {
                fs("a"), fs("b"), fs("c"), fs("d")
            }

    def test_required_roots_block_elision(self):
        required = frozenset([fs("a"), fs("b"), fs("a", "b"), fs("c"), fs("d")])
        p1 = intermediate(("a", "b"), [leaf("a"), leaf("b")], required=True)
        p2 = intermediate(("c", "d"), [leaf("c"), leaf("d")])
        candidates = subplan_merge(p1, p2, required)
        # (a) and (d) would drop the required (a,b) node: only (b), (c).
        assert len(candidates) == 2
        for candidate in candidates:
            assert fs("a", "b") in candidate.answered_queries()

    def test_merge_type_restriction(self):
        p1 = intermediate(("a", "b"), [leaf("a"), leaf("b")])
        p2 = intermediate(("c", "d"), [leaf("c"), leaf("d")])
        options = MergeOptions(merge_types=("b",))
        candidates = subplan_merge(p1, p2, REQUIRED, options)
        assert len(candidates) == 1
        assert len(candidates[0].children) == 2


class TestSubsumption:
    def test_smaller_becomes_child(self):
        p1 = leaf("a")
        p2 = intermediate(("a", "b"), [leaf("b")])
        (merged,) = subplan_merge(p1, p2, REQUIRED)
        assert merged.node.columns == fs("a", "b")
        assert p1 in merged.children

    def test_symmetric(self):
        p1 = intermediate(("a", "b"), [leaf("b")])
        p2 = leaf("a")
        (merged,) = subplan_merge(p1, p2, REQUIRED)
        assert merged.node.columns == fs("a", "b")

    def test_equal_roots_fuse(self):
        required = frozenset([fs("a"), fs("b"), fs("a", "b")])
        p1 = intermediate(("a", "b"), [leaf("a")], required=True)
        p2 = intermediate(("a", "b"), [leaf("b")])
        (merged,) = subplan_merge(p1, p2, required)
        assert merged.node.columns == fs("a", "b")
        assert len(merged.children) == 2
        assert merged.required


class TestCubeRollupCandidates:
    def test_cube_candidate(self):
        options = MergeOptions(enable_cube=True)
        candidates = subplan_merge(leaf("a"), leaf("b"), REQUIRED, options)
        cubes = [c for c in candidates if c.node.kind is NodeKind.CUBE]
        assert len(cubes) == 1
        assert cubes[0].direct_answers == frozenset([fs("a"), fs("b")])

    def test_no_cube_or_rollup_over_a_required_union(self):
        """The union's own sub-plan answers it; a CUBE / ROLLUP root is
        never merged again, so it must not become a second producer."""
        options = MergeOptions(enable_cube=True, enable_rollup=True)
        required = REQUIRED | {fs("a", "b")}
        candidates = subplan_merge(leaf("a"), leaf("b"), required, options)
        assert candidates
        assert {c.node.kind for c in candidates} == {NodeKind.GROUP_BY}

    def test_cube_width_guard(self):
        options = MergeOptions(enable_cube=True, cube_max_columns=1)
        candidates = subplan_merge(leaf("a"), leaf("b"), REQUIRED, options)
        assert not [c for c in candidates if c.node.kind is NodeKind.CUBE]

    def test_rollup_for_chain(self):
        required = frozenset([fs("a"), fs("a", "b")])
        p1 = leaf("a")
        p2 = SubPlan.leaf(fs("a", "b"), required=True)
        # These are subsuming, so force the chain through incomparable
        # roots instead: (a) and (b,c) with answered chain broken.
        options = MergeOptions(enable_rollup=True)
        candidates = subplan_merge(
            leaf("a"), SubPlan.leaf(fs("b"), required=True), required | {fs("b")}, options
        )
        rollups = [c for c in candidates if c.node.kind is NodeKind.ROLLUP]
        # (a) and (b) are incomparable -> no chain -> no rollup.
        assert not rollups

    def test_rollup_chain_produced(self):
        required = frozenset([fs("a"), fs("a", "b"), fs("c")])
        p1 = intermediate(("a", "b"), [leaf("a")], required=True)
        p2 = leaf("c")
        options = MergeOptions(enable_rollup=True)
        candidates = subplan_merge(p1, p2, required, options)
        rollups = [c for c in candidates if c.node.kind is NodeKind.ROLLUP]
        # answered = {(a), (a,b)} ∪ nothing-from-c... c is required, so
        # answered includes (c) -> {(a),(a,b),(c)} is NOT a chain.
        assert not rollups

    def test_rollup_pure_chain(self):
        required = frozenset([fs("a"), fs("a", "b")])
        p1 = SubPlan(
            PlanNode(fs("a", "b")), (leaf("a"),), required=True
        )
        p2 = SubPlan(PlanNode(fs("a", "b", "c")), (), required=False)
        # Merge a chain-answering subplan with a non-required wider one.
        options = MergeOptions(enable_rollup=True)
        candidates = subplan_merge(p1, p2, required, options)
        # p1 root is a strict subset of p2 root -> subsumption merge
        # only; rollups appear only for incomparable pairs.
        assert len(candidates) == 1


class TestNonGroupByRoots:
    def test_cube_rooted_subplans_not_merged(self):
        cube_node = SubPlan(
            PlanNode(fs("a", "b"), NodeKind.CUBE),
            (),
            direct_answers=frozenset([fs("a")]),
        )
        assert subplan_merge(cube_node, leaf("c"), REQUIRED) == []
