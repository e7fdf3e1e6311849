"""Unit tests for PipeSort pipelines."""

import pytest

from repro.engine.pipesort import build_pipelines, pipesort
from tests.conftest import brute_force_group_by, result_as_dict


def fs(*cols):
    return frozenset(cols)


class TestBuildPipelines:
    def test_chains_are_inclusion_ordered(self):
        queries = [fs("a"), fs("b"), fs("a", "b"), fs("a", "b", "c")]
        pipelines = build_pipelines(queries)
        for pipeline in pipelines:
            chain = pipeline.chain
            for bigger, smaller in zip(chain, chain[1:]):
                assert smaller < bigger

    def test_every_query_assigned_once(self):
        queries = [fs("a"), fs("b"), fs("c"), fs("a", "b"), fs("b", "c")]
        pipelines = build_pipelines(queries)
        assigned = [q for p in pipelines for q in p.chain]
        assert sorted(assigned, key=sorted) == sorted(
            set(queries), key=sorted
        )

    def test_containment_workload_shares(self):
        # CONT: 3 singles + 3 pairs -> 3 pipelines, each pair + single.
        queries = [
            fs("s"), fs("c"), fs("r"),
            fs("s", "c"), fs("s", "r"), fs("c", "r"),
        ]
        pipelines = build_pipelines(queries)
        assert len(pipelines) == 3
        assert all(len(p.chain) == 2 for p in pipelines)

    def test_disjoint_queries_no_sharing(self):
        queries = [fs("a"), fs("b"), fs("c")]
        pipelines = build_pipelines(queries)
        assert len(pipelines) == 3

    def test_sort_order_prefix_property(self):
        pipelines = build_pipelines([fs("a", "b", "c"), fs("a", "c"), fs("c")])
        (pipeline,) = pipelines
        order = pipeline.sort_order()
        for grouping in pipeline.chain:
            prefix = set(order[: len(grouping)])
            assert prefix == set(grouping)


class TestPipesortExecution:
    def test_results_match_brute_force(self, random_table):
        queries = [
            fs("low"), fs("mid"),
            fs("low", "mid"), fs("low", "mid", "corr"),
        ]
        shared = pipesort(random_table, queries)
        assert shared.sorts_performed == len(shared.pipelines)
        for query in queries:
            keys = sorted(query)
            assert result_as_dict(
                shared.results[query], keys
            ) == brute_force_group_by(random_table, keys)

    def test_fewer_sorts_than_queries_with_containment(self, random_table):
        queries = [fs("low"), fs("low", "mid"), fs("mid")]
        shared = pipesort(random_table, queries)
        assert shared.sorts_performed < len(queries)
