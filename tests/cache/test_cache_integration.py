"""End-to-end tests: cache-aware lowering, execution, invalidation.

The acceptance contract of the semantic result cache: cache-off
sessions are bit-identical to the historical behavior, cache-served
results are bit-identical to cold execution in every mode, mutations
invalidate atomically, and PV025 turns stale reads into hard errors.
"""

import pytest

from repro.analysis.dataflow import AnalysisContext
from repro.analysis.physrules import check_physical_plan
from repro.analysis.verifier import PlanVerificationError
from repro.api import Session
from repro.cache import CacheConfig
from repro.obs.metrics import MetricsRegistry
from repro.physical.plan import CacheRead, Reaggregate
from repro.workloads.queries import combi_workload
from repro.workloads.sales import make_sales


def sales_session(rows: int = 4_000, **kwargs) -> Session:
    table = make_sales(rows)
    table.build_dictionaries()
    return Session.for_table(table, statistics="exact", **kwargs)


def combi_queries(table_rows: int = 4_000):
    return combi_workload(["region", "state", "city"], 2)


def assert_results_equal(left, right, queries):
    for query in queries:
        assert left.results[query].to_rows() == right.results[query].to_rows()


class TestCacheOffUnchanged:
    def test_cache_off_is_default_and_bit_identical(self):
        queries = combi_queries()
        base = sales_session()
        assert not base.cache_enabled
        assert base.cache_stats() == {"enabled": False}
        cached = sales_session(cache=True)
        e1 = base.execute(base.optimize(queries).plan)
        e2 = cached.execute(cached.optimize(queries).plan)
        assert_results_equal(e1, e2, queries)

    def test_cache_off_lowering_has_no_cache_reads(self):
        session = sales_session()
        plan = session.optimize(combi_queries()).plan
        session.execute(plan)
        physical = session.lower(plan)
        assert not any(
            isinstance(op, CacheRead) for op in physical.operators
        )


class TestExactHits:
    def test_warm_run_serves_from_cache(self):
        queries = combi_queries()
        session = sales_session(cache=True)
        plan = session.optimize(queries).plan
        cold = session.execute(plan)
        warm = session.execute(plan)
        assert_results_equal(cold, warm, queries)
        stats = session.cache_stats()
        assert stats["hits"] >= len(queries)
        # The warm run touched no base-table rows for cached groupings.
        assert warm.metrics.rows_scanned < cold.metrics.rows_scanned

    def test_warm_physical_plan_uses_cache_reads(self):
        session = sales_session(cache=True)
        plan = session.optimize(combi_queries()).plan
        session.execute(plan)
        physical = session.lower(plan)
        reads = [
            op for op in physical.operators if isinstance(op, CacheRead)
        ]
        assert reads
        assert all(op.est_cost == 0.0 for op in reads)

    @pytest.mark.parametrize("mode", ["serial", "wavefront", "morsel"])
    def test_bit_identical_across_modes(self, mode):
        queries = combi_queries()
        reference = sales_session()
        expected = reference.execute(reference.optimize(queries).plan)
        session = sales_session(cache=True)
        plan = session.optimize(queries).plan
        cold = session.execute(plan, mode=mode, parallelism=4)
        warm = session.execute(plan, mode=mode, parallelism=4)
        assert_results_equal(expected, cold, queries)
        assert_results_equal(expected, warm, queries)
        assert session.cache_stats()["hits"] > 0


class TestDerivedHits:
    def test_coarser_query_served_by_reaggregation(self):
        session = sales_session(cache=True)
        fine = [frozenset({"city", "state"})]
        session.execute(session.optimize(fine).plan)
        coarse_plan = session.optimize([frozenset({"state"})]).plan
        physical = session.lower(coarse_plan)
        reads = [
            op for op in physical.operators if isinstance(op, CacheRead)
        ]
        assert len(reads) == 1 and reads[0].derived
        reagg = next(
            op
            for op in physical.operators
            if isinstance(op, Reaggregate) and op.source == reads[0].op_id
        )
        assert frozenset(reagg.keys) < frozenset(reads[0].keys)
        warm = session.execute(coarse_plan)
        cold = sales_session()
        expected = cold.execute(cold.optimize([frozenset({"state"})]).plan)
        assert_results_equal(expected, warm, [frozenset({"state"})])
        assert session.cache_stats()["derived_hits"] == 1

    def test_verifier_accepts_derived_plan(self):
        session = sales_session(cache=True)
        session.execute(session.optimize([frozenset({"city", "state"})]).plan)
        physical = session.lower(session.optimize([frozenset({"state"})]).plan)
        context = AnalysisContext(
            catalog=session.catalog,
            base_table=session.base_table,
            estimator=session.estimator,
        )
        check_physical_plan(physical, context=context)


class TestInvalidation:
    def test_mutation_then_query_recomputes(self):
        queries = [frozenset({"state"})]
        session = sales_session(cache=True)
        plan = session.optimize(queries).plan
        session.execute(plan)
        assert session.cache_stats()["entries"] == 1
        # Mutate the base relation through the catalog's mutation API.
        replacement = make_sales(5_000).rename(session.base_table)
        session.catalog.replace_table(replacement)
        assert session.cache_stats()["entries"] == 0
        fresh = session.execute(session.optimize(queries).plan)
        cold = Session.for_table(make_sales(5_000), statistics="exact")
        expected = cold.execute(cold.optimize(queries).plan)
        assert_results_equal(expected, fresh, queries)

    def test_session_invalidate_bumps_version(self):
        session = sales_session(cache=True)
        session.execute(session.optimize([frozenset({"state"})]).plan)
        before = session.catalog.version(session.base_table)
        assert session.invalidate() == before + 1
        assert session.cache_stats()["entries"] == 0

    def test_stale_cache_read_is_hard_error(self):
        session = sales_session(cache=True)
        plan = session.optimize([frozenset({"state"})]).plan
        session.execute(plan)
        physical = session.lower(plan)
        assert any(isinstance(op, CacheRead) for op in physical.operators)
        session.invalidate()
        context = AnalysisContext(
            catalog=session.catalog, base_table=session.base_table
        )
        with pytest.raises(PlanVerificationError, match="PV025"):
            check_physical_plan(physical, context=context)

    def test_context_free_gate_skips_version_clause(self):
        session = sales_session(cache=True)
        plan = session.optimize([frozenset({"state"})]).plan
        session.execute(plan)
        physical = session.lower(plan)
        session.invalidate()
        # Without a catalog the version is unverifiable: no error.
        check_physical_plan(physical)


class TestEvictionFallback:
    def test_entry_evicted_between_lower_and_execute(self):
        queries = [frozenset({"state"})]
        session = sales_session(cache=True)
        plan = session.optimize(queries).plan
        session.execute(plan)
        assert session.result_cache is not None
        # Serve path disappears after lowering: executor recomputes.
        warm = session.execute(plan)
        session.result_cache.clear()
        cold = Session.for_table(make_sales(4_000), statistics="exact")
        expected = cold.execute(cold.optimize(queries).plan)
        assert_results_equal(expected, warm, queries)


class TestMetricsAndConfig:
    def test_cache_metrics_recorded(self):
        registry = MetricsRegistry()
        session = sales_session(cache=True, metrics=registry)
        plan = session.optimize([frozenset({"state"})]).plan
        session.execute(plan)
        session.execute(plan)
        flat = dict(registry.flat_snapshot())
        assert any("repro_cache_hits_total" in key for key in flat)
        assert any("repro_cache_misses_total" in key for key in flat)
        assert any("repro_cache_bytes" in key for key in flat)

    def test_min_rows_config_blocks_admission(self):
        session = sales_session(
            rows=2_000, cache=CacheConfig(min_rows=1_000_000)
        )
        plan = session.optimize([frozenset({"state"})]).plan
        session.execute(plan)
        stats = session.cache_stats()
        assert stats["entries"] == 0
        assert stats["rejected"] > 0

    def test_cache_stats_shape(self):
        session = sales_session(cache=True)
        stats = session.cache_stats()
        assert stats["enabled"] is True
        assert set(stats) >= {
            "entries",
            "bytes",
            "max_bytes",
            "hits",
            "derived_hits",
            "misses",
            "evictions",
        }
