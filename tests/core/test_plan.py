"""Unit tests for logical plans and sub-plans."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.plan import (
    LogicalPlan,
    NodeKind,
    PlanError,
    PlanNode,
    SubPlan,
    naive_plan,
)

REPO = Path(__file__).resolve().parents[2]


def fs(*cols):
    return frozenset(cols)


class TestPlanNode:
    def test_empty_columns_rejected(self):
        with pytest.raises(PlanError):
            PlanNode(frozenset())

    def test_group_by_answers_exactly_itself(self):
        node = PlanNode(fs("a", "b"))
        assert node.answers(fs("a", "b"))
        assert not node.answers(fs("a"))

    def test_cube_answers_subsets(self):
        node = PlanNode(fs("a", "b"), NodeKind.CUBE)
        assert node.answers(fs("a"))
        assert node.answers(fs("a", "b"))
        assert not node.answers(fs("c"))

    def test_rollup_answers_prefixes(self):
        node = PlanNode(fs("a", "b"), NodeKind.ROLLUP, ("a", "b"))
        assert node.answers(fs("a"))
        assert node.answers(fs("a", "b"))
        assert not node.answers(fs("b"))

    def test_rollup_order_must_match(self):
        with pytest.raises(PlanError):
            PlanNode(fs("a", "b"), NodeKind.ROLLUP, ("a",))

    def test_describe(self):
        assert PlanNode(fs("b", "a")).describe() == "(a,b)"
        assert PlanNode(fs("a"), NodeKind.CUBE).describe() == "CUBE(a)"


class TestSubPlan:
    def test_child_must_be_strict_subset(self):
        with pytest.raises(PlanError):
            SubPlan(PlanNode(fs("a")), (SubPlan.leaf(fs("a")),))

    def test_direct_answers_checked(self):
        with pytest.raises(PlanError):
            SubPlan(PlanNode(fs("a")), (), direct_answers=frozenset([fs("b")]))

    def test_materialized_iff_children(self):
        leaf = SubPlan.leaf(fs("a"))
        assert not leaf.is_materialized
        parent = SubPlan(PlanNode(fs("a", "b")), (leaf,))
        assert parent.is_materialized

    def test_answered_queries(self):
        inner = SubPlan(PlanNode(fs("a", "b")), (SubPlan.leaf(fs("a")),))
        assert inner.answered_queries() == {fs("a")}

    def test_iter_edges(self):
        leaf_a, leaf_b = SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"))
        root = SubPlan(PlanNode(fs("a", "b")), (leaf_a, leaf_b))
        edges = list(root.iter_edges())
        assert (root, leaf_a) in edges and (root, leaf_b) in edges

    def test_node_count(self):
        root = SubPlan(
            PlanNode(fs("a", "b")),
            (SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"))),
        )
        assert root.node_count() == 3

    def test_render_marks_required_and_spool(self):
        root = SubPlan(PlanNode(fs("a", "b")), (SubPlan.leaf(fs("a")),))
        text = root.render()
        assert "[spool]" in text
        assert "(a)*" in text


class TestLogicalPlan:
    def test_naive_plan_all_leaves(self):
        plan = naive_plan("R", [fs("a"), fs("b")])
        assert all(not s.children for s in plan.subplans)
        plan.validate()

    def test_naive_plan_dedupes(self):
        plan = naive_plan("R", [fs("a"), fs("a")])
        assert len(plan.subplans) == 1

    def test_validate_missing_query(self):
        plan = LogicalPlan("R", (SubPlan.leaf(fs("a")),), frozenset([fs("b")]))
        with pytest.raises(PlanError, match="does not answer"):
            plan.validate()

    def test_validate_spurious_required(self):
        plan = LogicalPlan("R", (SubPlan.leaf(fs("a")),), frozenset())
        with pytest.raises(PlanError):
            plan.validate()

    def test_iter_edges_includes_root_edges(self):
        plan = naive_plan("R", [fs("a")])
        edges = list(plan.iter_edges())
        assert edges[0][0] is None

    def test_replace_subplans(self):
        plan = naive_plan("R", [fs("a"), fs("b")])
        merged = SubPlan(
            PlanNode(fs("a", "b")),
            tuple(plan.subplans),
        )
        new_plan = plan.replace_subplans(plan.subplans, [merged])
        assert len(new_plan.subplans) == 1
        new_plan.validate()

    def test_render_tree(self):
        plan = naive_plan("R", [fs("a"), fs("b")])
        text = plan.render()
        assert text.splitlines()[0] == "R"
        assert "└──" in text

    def test_materialized_nodes(self):
        root = SubPlan(PlanNode(fs("a", "b")), (SubPlan.leaf(fs("a")),))
        plan = LogicalPlan("R", (root,), frozenset([fs("a")]))
        assert plan.materialized_nodes() == [root]


def build_tree():
    """A three-level sub-plan with a ROLLUP leaf, built from scratch."""
    rollup = SubPlan(
        PlanNode(fs("c", "d"), NodeKind.ROLLUP, ("c", "d")),
        (),
        direct_answers=frozenset([fs("c")]),
    )
    inner = SubPlan(PlanNode(fs("a", "b")), (SubPlan.leaf(fs("a")),), True)
    return SubPlan(PlanNode(fs("a", "b", "c", "d")), (inner, rollup))


class TestCachedHash:
    """PlanNode / SubPlan hash once at construction; the cached value is
    an implementation detail that equal objects must agree on however
    they were made, and that nothing but ``hash()`` may observe."""

    def copies(self):
        tree = build_tree()
        return tree, {
            "independent": build_tree(),
            "with_children": tree.with_children(tree.children),
            "replace": dataclasses.replace(tree),
            "copy": copy.copy(tree),
            "deepcopy": copy.deepcopy(tree),
            "pickle": pickle.loads(pickle.dumps(tree)),
        }

    def test_equal_subplans_hash_equal(self):
        tree, copies = self.copies()
        for how, other in copies.items():
            assert other == tree, how
            assert hash(other) == hash(tree), how
            assert other.node == tree.node
            assert hash(other.node) == hash(tree.node), how
            assert {tree: 1}[other] == 1, how

    def test_hash_is_the_field_hash(self):
        tree = build_tree()
        assert hash(tree) == hash(
            (tree.node, tree.children, tree.required, tree.direct_answers)
        )
        node = tree.node
        assert hash(node) == hash((node.columns, node.kind, node.rollup_order))

    def test_changed_field_changes_hash(self):
        tree = build_tree()
        assert dataclasses.replace(tree, required=True) != tree
        assert hash(dataclasses.replace(tree, required=True)) != hash(tree)
        pruned = tree.with_children(tree.children[:1])
        assert pruned != tree and hash(pruned) != hash(tree)
        cube = dataclasses.replace(tree.node, kind=NodeKind.CUBE)
        assert cube != tree.node and hash(cube) != hash(tree.node)

    def test_cache_is_invisible(self):
        tree = build_tree()
        field_names = ["node", "children", "required", "direct_answers"]
        assert [f.name for f in dataclasses.fields(tree)] == field_names
        assert list(dataclasses.asdict(tree)) == field_names
        assert "_hash" not in repr(tree)
        # A wrong cached value must not make equal trees unequal.
        twin = build_tree()
        object.__setattr__(twin, "_hash", hash(tree) + 1)
        assert twin == tree

    def test_pickle_carries_no_hash(self):
        # str hashes are salted per process: a cached hash that travelled
        # in the pickle would disagree with hashes computed on arrival.
        tree = build_tree()
        script = (
            "import pickle, sys\n"
            "from tests.core.test_plan import build_tree\n"
            "tree = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = build_tree()\n"
            "assert tree == fresh\n"
            "assert hash(tree) == hash(fresh)\n"
            "assert hash(tree.node) == hash(fresh.node)\n"
            "assert {fresh: 1}[tree] == 1\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(tree),
            env={
                **os.environ,
                "PYTHONHASHSEED": "12345",
                "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}",
            },
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()

    def test_frozen_still_enforced(self):
        tree = build_tree()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.required = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.node.columns = fs("z")
