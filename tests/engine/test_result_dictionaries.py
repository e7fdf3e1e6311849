"""A Group By result's key dictionaries: deferred, exact, and unretaining.

The grouping kernels hand their result a *derivation* per key column
instead of a built dictionary.  Four contracts are pinned here: the
realised dictionary is exactly what encoding the result column would
give; nobody pays for a dictionary nobody reads; a pending derivation
keeps neither the grouping's per-row arrays nor its input alive; and
the row-relative dense-domain guard only ever swaps one regime for
another that returns the same table.
"""

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import FunctionType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.plan import LogicalPlan, PlanNode, SubPlan, naive_plan
from repro.engine import aggregation, dictcache
from repro.engine.aggregation import (
    DENSE_DOMAIN_FLOOR,
    DENSE_DOMAIN_SLACK,
    AggregateSpec,
    group_by,
)
from repro.engine.dictcache import code_dtype, encode_column, legacy_encode
from repro.engine.executor import PlanExecutor
from repro.engine.morsel import MorselGrouping, compute_morsel_groupings
from repro.engine.partitioned_cube import partitioned_cube
from repro.engine.table import Table
from repro.engine.types import INT_NULL
from repro.physical.plan import Materialize
from repro.workloads.queries import two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import make_lineitem
from tests.conftest import brute_force_group_by, result_as_dict
from tests.engine.test_morsel import assert_tables_bit_identical

COUNT = [AggregateSpec.count_star()]
COUNT_AND_SUM = [AggregateSpec.count_star(), AggregateSpec("sum", "v", "s")]
COUNT_AND_SUM_SALES = [
    AggregateSpec.count_star(),
    AggregateSpec("sum", "quantity", "s"),
]


def assert_dictionaries_exact(result: Table, keys) -> None:
    """``result.dictionary(k)`` is the raw-value encode: the values of the
    ``int64`` reference, the codes in the narrowest dtype that holds
    them — bit for bit what ``encode_column`` gives."""
    for key in keys:
        codes, values = result.dictionary(key)
        want_codes, want_values = legacy_encode(result[key])
        assert codes.dtype == encode_column(result[key])[0].dtype
        assert codes.dtype == code_dtype(len(want_values))
        assert values.dtype == want_values.dtype
        np.testing.assert_array_equal(codes, want_codes)
        np.testing.assert_array_equal(values, want_values)


def key_column(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "small":
        return rng.integers(-3, 4, n)
    if kind == "nulls":
        column = rng.integers(0, 5, n)
        column[rng.random(n) < 0.3] = INT_NULL
        return column
    if kind == "strings":
        return np.array(rng.choice(["", "a", "bb", "zz"], n), dtype="U2")
    assert kind == "near_unique"
    return rng.permutation(3 * n)[:n] - n


@st.composite
def keyed_tables(draw):
    """(table, keys): 0–70 rows, key width 1–4, every key kind mixed."""
    n = draw(st.sampled_from([0, 1, 2, 7, 40, 70]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kinds = draw(
        st.lists(
            st.sampled_from(["small", "nulls", "strings", "near_unique"]),
            min_size=1,
            max_size=4,
        )
    )
    columns = {f"k{i}": key_column(kind, n, rng) for i, kind in enumerate(kinds)}
    columns["v"] = rng.integers(-9, 9, n)
    return Table("t", columns), [f"k{i}" for i in range(len(kinds))]


class TestRealisedDictionaryIsExact:
    @settings(max_examples=120, deadline=None)
    @given(case=keyed_tables(), strategy=st.sampled_from(["hash", "sort"]))
    def test_single_pass_regimes(self, case, strategy):
        table, keys = case
        result = group_by(table, keys, COUNT_AND_SUM, strategy=strategy)
        assert_dictionaries_exact(result, keys)

    @settings(max_examples=60, deadline=None)
    @given(case=keyed_tables(), morsels=st.integers(1, 5))
    def test_morsel_merged(self, case, morsels):
        table, keys = case
        grouping = MorselGrouping(table, keys, COUNT_AND_SUM)
        if grouping.feasible:
            [result], _ = compute_morsel_groupings(
                table, [grouping], morsels, 1
            )
        else:
            # The executor runs such a batch reader single-pass.
            result = group_by(table, keys, COUNT_AND_SUM)
        assert_tables_bit_identical(result, group_by(table, keys, COUNT_AND_SUM))
        assert_dictionaries_exact(result, keys)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1_000), n=st.integers(450, 700))
    def test_compressed_layout(self, seed, n):
        # Eight keys of ~400 values overflow int64, so the composite key
        # is compressed and the result gathers representative rows: no
        # derivation exists and ``dictionary`` encodes raw values.
        rng = np.random.default_rng(seed)
        keys = [f"k{i}" for i in range(8)]
        table = Table("w", {key: rng.integers(0, 400, n) for key in keys})
        _, _, cards = aggregation._combined_codes(table, keys)
        assert cards is None
        result = group_by(table, keys, COUNT)
        assert_dictionaries_exact(result, keys)

    def test_transformed_results_carry_the_derivation(self):
        table = make_sales(500, seed=2)
        result = group_by(table, ["region", "channel"], COUNT)
        for derived in (
            result.project(["channel", "cnt"]),
            result.rename("other"),
            result.with_column("region", result["region"]),
        ):
            # Served without a raw-value encode, before and after the
            # original realises its own copy.
            assert derived.cached_dictionary("channel") is not None
            assert_dictionaries_exact(derived, ["channel"])
        replaced = result.with_column("region", result["region"])
        assert replaced.cached_dictionary("region") is None
        assert_dictionaries_exact(result, ["region", "channel"])

    def test_drop_discards_pending_and_counts_built(self):
        table = make_sales(500, seed=2)
        result = group_by(table, ["region", "channel"], COUNT)
        result.dictionary("region")
        assert result.drop_dictionaries() == 1
        assert result.cached_dictionary("channel") is None
        assert result.drop_dictionaries() == 0


class TestRacingRealisation:
    def test_racing_readers_never_encode_raw_values(self, monkeypatch):
        """Workers racing on one result's pending dictionary may build it
        twice, but each gets the exact dictionary and none falls through
        to the raw-value encode (the thunk is forgotten only after the
        built dictionary is stored)."""
        table = make_sales(2_000, seed=3)
        table.build_dictionaries()
        keys = ["region", "channel", "store_id"]
        raw_encodes = []
        monkeypatch.setattr(
            dictcache,
            "encode_column",
            lambda array: raw_encodes.append(len(array)) or encode_column(array),
        )
        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                result = group_by(table, keys, COUNT)
                barrier = threading.Barrier(workers)

                def read(result=result, barrier=barrier):
                    barrier.wait(timeout=10)
                    return [result.dictionary(key) for key in keys]

                with ThreadPoolExecutor(workers) as pool:
                    futures = [pool.submit(read) for _ in range(workers)]
                    seen = [future.result(timeout=30) for future in futures]
                for dictionaries in seen:
                    for key, (codes, values) in zip(keys, dictionaries):
                        want_codes, want_values = encode_column(result[key])
                        np.testing.assert_array_equal(codes, want_codes)
                        np.testing.assert_array_equal(values, want_values)
        finally:
            sys.setswitchinterval(interval)
        assert raw_encodes == []


@pytest.fixture
def realisations(monkeypatch):
    """Count result-dictionary realisations (never time them)."""
    calls = []
    rerank = aggregation._rerank_dictionary

    def counting(parent_codes, parent_uniques):
        calls.append(len(parent_codes))
        return rerank(parent_codes, parent_uniques)

    monkeypatch.setattr(aggregation, "_rerank_dictionary", counting)
    return calls


class TestNoDeadWork:
    """Dictionaries are built for whoever asks, and nobody else."""

    def _session(self):
        table = make_sales(3_000, seed=4)
        table.build_dictionaries()
        return Session.for_table(table, statistics="exact")

    MODES = pytest.mark.parametrize(
        "mode, parallelism", [("serial", 1), ("wavefront", 2), ("morsel", 2)]
    )

    @MODES
    def test_plan_without_temps_realises_nothing(
        self, realisations, mode, parallelism
    ):
        session = self._session()
        queries = two_column_queries(SALES_COLUMNS[:6])
        result = session.execute(
            naive_plan(session.base_table, queries),
            mode=mode,
            parallelism=parallelism,
        )
        assert len(result.results) == len(queries)
        assert realisations == []

    @MODES
    def test_plan_with_temps_realises_their_keys_only(
        self, realisations, mode, parallelism
    ):
        session = self._session()
        plan = session.optimize(two_column_queries(SALES_COLUMNS[:6])).plan
        physical = session.lower(plan, mode=mode, parallelism=parallelism)
        temp_keys = sum(
            len(physical.op(op.source).keys)
            for op in physical.iter_ops()
            if isinstance(op, Materialize)
        )
        assert temp_keys > 0, "workload no longer materializes anything"
        session.execute(plan, mode=mode, parallelism=parallelism)
        assert len(realisations) == temp_keys


def reachable_arrays(root) -> list[np.ndarray]:
    """Every ndarray reachable from ``root``: through attributes,
    containers, partials, closures and the bases of views — but not
    through classes or a function's module globals."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


def assert_derivations_hold_per_group_arrays(result: Table, keys) -> None:
    """Every pending key derivation holds per-group arrays only.

    A single key is numbered by its own input dictionary (every code
    occurs), so its derivation is the identity over the result column
    and holds that column alone.  A composite key's derivation holds
    its per-group input codes in ``uint8`` (sales ``region`` has 10
    values, ``channel`` 4) beside the input dictionary's values.
    """
    for key in keys:
        derive = result._pending[key]
        if len(keys) == 1:
            assert derive.func is aggregation._identity_dictionary
            (values,) = derive.args
            assert values is result[key]
            assert not values.flags.writeable
        else:
            codes, uniques = derive.args
            assert len(uniques) <= 256
            assert codes.dtype == np.uint8


class TestRetention:
    """A pending derivation holds per-group arrays and nothing else."""

    @pytest.mark.parametrize("strategy", ["hash", "sort"])
    @pytest.mark.parametrize("keys", [["region"], ["region", "channel"]])
    def test_input_dies_while_result_lives(self, strategy, keys):
        table = make_sales(4_000, seed=1)
        probe = weakref.ref(table)
        result = group_by(table, keys, COUNT_AND_SUM_SALES, strategy=strategy)
        del table
        gc.collect()
        assert probe() is None
        assert 0 < result.num_rows < 4_000
        for array in reachable_arrays(result):
            assert len(array) <= result.num_rows
        assert_derivations_hold_per_group_arrays(result, keys)
        assert_dictionaries_exact(result, keys)

    def test_morsel_result_holds_no_input(self):
        table = make_sales(4_000, seed=1)
        probe = weakref.ref(table)
        groupings = [
            MorselGrouping(table, keys, COUNT)
            for keys in (["region"], ["region", "channel"])
        ]
        results, _ = compute_morsel_groupings(table, groupings, 3, 1)
        del table, groupings
        gc.collect()
        assert probe() is None
        for result, keys in zip(results, (["region"], ["region", "channel"])):
            for array in reachable_arrays(result):
                assert len(array) <= result.num_rows
            assert_derivations_hold_per_group_arrays(result, keys)


class TestDenseDomainGuard:
    """Either side of ``radix / n``'s threshold, hash == sort, table for table."""

    @staticmethod
    def _table(n: int, radix: int, seed: int) -> Table:
        # Two keys whose dictionaries span the full domain whatever n is.
        rng = np.random.default_rng(seed)
        card = int(np.sqrt(radix))
        a = np.concatenate([np.arange(card), rng.integers(0, card, n - card)])
        b = np.concatenate([np.arange(card), rng.integers(0, card, n - card)])
        return Table(
            "g", {"a": rng.permutation(a), "b": b, "v": rng.integers(-9, 9, n)}
        )

    @pytest.mark.parametrize("ratio", [0.25, 1.0, 1.9, 2.1, 4.0, 40.0, 200.0])
    @pytest.mark.parametrize("n", [3_000, 20_000])
    def test_hash_equals_sort_across_threshold(self, n, ratio):
        table = self._table(n, int(ratio * n), seed=n)
        radix = len(table.dictionary("a")[1]) * len(table.dictionary("b")[1])
        # The cases straddle the guard: some bincount, some fall back.
        assert aggregation._dense_domain(radix, n) == (ratio < DENSE_DOMAIN_SLACK)
        for aggregates in (COUNT, COUNT_AND_SUM):
            hashed = group_by(table, ["a", "b"], aggregates, strategy="hash")
            sorted_ = group_by(table, ["a", "b"], aggregates, strategy="sort")
            assert_tables_bit_identical(hashed, sorted_)
            assert_dictionaries_exact(hashed, ["a", "b"])

    def test_guard_is_relative_to_rows_with_a_floor(self):
        dense = aggregation._dense_domain
        assert dense(DENSE_DOMAIN_FLOOR, 1)
        assert not dense(DENSE_DOMAIN_FLOOR + 1, 1)
        assert dense(DENSE_DOMAIN_SLACK * 100_000, 100_000)
        assert not dense(DENSE_DOMAIN_SLACK * 100_000 + 1, 100_000)
        assert not dense(aggregation.BINCOUNT_LIMIT + 1, 10**9)


def boundary_column(kind: str, card: int, rng: np.random.Generator) -> np.ndarray:
    """A column of ``card`` distinct values (NULL among them for the
    ``*_null`` kinds), each at least once, in random order."""
    values = np.arange(card, dtype=np.int64) * 7 - 3 * card
    if kind in ("float", "float_null"):
        values = values / 4.0
    elif kind in ("str", "str_null"):
        values = np.char.add("v", values.astype("U8"))
    if kind.endswith("_null"):
        values[0] = {"int_null": INT_NULL, "float_null": np.nan}.get(kind, "")
    column = np.concatenate([values, values[rng.integers(0, card, card // 2)]])
    return rng.permutation(column)


WIDTH_OF = {256: np.uint8, 257: np.uint16, 65_536: np.uint16, 65_537: np.uint32}
KINDS = ["int", "float", "str", "int_null", "float_null", "str_null"]


def assert_matches_brute_force(result: Table, table: Table, keys) -> None:
    assert result_as_dict(result, keys) == brute_force_group_by(table, keys)
    assert result_as_dict(result, keys, "s") == brute_force_group_by(
        table, keys, "sum", "v"
    )


def reference_rerank(parent_codes, parent_uniques):
    """The re-rank as it was with ``int64`` codes: one ``np.unique``."""
    uniq_codes, inverse = np.unique(parent_codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), parent_uniques[uniq_codes]


class TestNarrowCodes:
    """Codes are stored in the narrowest unsigned dtype: deferred codes
    realise the ``int64`` dictionary's values, base dictionaries hold
    ``legacy_encode``'s, and every path over them answers as the
    reference does."""

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.sampled_from([1, 2, 255, 256, 257, 65_535, 65_536, 65_537]),
        groups=st.sampled_from([0, 1, 3, 200, 5_000, 20_000]),
        seed=st.integers(0, 10_000),
        strings=st.booleans(),
    )
    def test_realised_dictionary_bit_identical(
        self, size, groups, seed, strings
    ):
        rng = np.random.default_rng(seed)
        codes = np.sort(rng.integers(0, size, groups)).astype(np.int64)
        uniques = np.arange(size, dtype=np.int64) * 3 - 7
        if strings:
            uniques = uniques.astype("U8")
        narrow = aggregation.narrow_codes(codes, size)
        want = np.uint8 if size <= 256 else np.uint16 if size <= 65_536 else np.uint32
        assert narrow.dtype == want
        got_codes, got_values = aggregation._rerank_dictionary(narrow, uniques)
        want_codes, want_values = reference_rerank(codes, uniques)
        assert got_codes.dtype == code_dtype(len(want_values))
        assert got_values.dtype == want_values.dtype
        np.testing.assert_array_equal(got_codes, want_codes)
        np.testing.assert_array_equal(got_values, want_values)

    def test_empty_input(self):
        uniques = np.array([], dtype=np.int64)
        got = aggregation._rerank_dictionary(
            aggregation.narrow_codes(np.array([], dtype=np.int64), 0), uniques
        )
        want = reference_rerank(np.array([], dtype=np.int64), uniques)
        assert got[0].dtype == code_dtype(0) == np.uint8
        assert got[1].dtype == want[1].dtype
        for got_array, want_array in zip(got, want):
            assert got_array.shape == want_array.shape == (0,)

    def test_wide_dictionaries_keep_int64(self):
        codes = np.array([0, 5], dtype=np.int64)
        assert aggregation.narrow_codes(codes, 1 << 32).dtype == np.uint32
        assert aggregation.narrow_codes(codes, (1 << 32) + 1) is codes

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("card", sorted(WIDTH_OF))
    def test_base_dictionary_is_narrowest(self, card, kind):
        column = boundary_column(kind, card, np.random.default_rng(card))
        table = Table("t", {"k": column})
        table.build_dictionaries()
        codes, values = table.dictionary("k")
        want_codes, want_values = legacy_encode(table["k"])
        assert codes.dtype == WIDTH_OF[card] == code_dtype(card)
        assert len(want_values) == card
        np.testing.assert_array_equal(codes, want_codes)
        np.testing.assert_array_equal(values, want_values)

    @staticmethod
    def _table(kind: str, card: int, seed: int = 0) -> Table:
        rng = np.random.default_rng(seed)
        a = boundary_column(kind, card, rng)
        return Table(
            "t",
            {
                "a": a,
                "b": rng.integers(0, 3, len(a)),
                "v": rng.integers(-9, 9, len(a)),
            },
        )

    @pytest.mark.parametrize("kind", ["int", "str", "float_null"])
    @pytest.mark.parametrize("card", [256, 257])
    @pytest.mark.parametrize("strategy", ["auto", "hash", "sort"])
    def test_group_by_over_narrow_codes(self, card, kind, strategy):
        table = self._table(kind, card)
        for keys in (["a"], ["b", "a"], ["a", "b"]):
            result = group_by(table, keys, COUNT_AND_SUM, strategy=strategy)
            assert_matches_brute_force(result, table, keys)
            assert_dictionaries_exact(result, keys)

    @pytest.mark.parametrize(
        "card, mode, parallelism",
        [
            (256, "serial", 1),
            (256, "wavefront", 2),
            (256, "morsel", 2),
            (65_537, "serial", 1),
        ],
    )
    def test_reaggregate_from_materialized_temp(self, card, mode, parallelism):
        table = self._table("int", card, seed=1)
        session = Session.for_table(table, statistics="exact")
        ab, a, b = frozenset("ab"), frozenset("a"), frozenset("b")
        plan = LogicalPlan(
            session.base_table,
            (
                SubPlan(
                    PlanNode(ab), (SubPlan.leaf(a), SubPlan.leaf(b)), required=True
                ),
            ),
            frozenset({ab, a, b}),
        )
        run = session.execute(
            plan, aggregates=COUNT_AND_SUM, mode=mode, parallelism=parallelism
        )
        for query in (ab, a, b):
            assert_matches_brute_force(run.results[query], table, sorted(query))

    @pytest.mark.parametrize("card", [256, 257, 65_536])
    def test_forced_morsel_batch(self, card):
        table = self._table("str", card, seed=2)
        key_sets = (["a"], ["a", "b"], ["b"])
        groupings = [MorselGrouping(table, keys, COUNT_AND_SUM) for keys in key_sets]
        assert all(grouping.feasible for grouping in groupings)
        results, _ = compute_morsel_groupings(table, groupings, 3, 2)
        for result, keys in zip(results, key_sets):
            assert_matches_brute_force(result, table, keys)
            assert_dictionaries_exact(result, keys)

    @pytest.mark.parametrize("card", [256, 257])
    def test_partitioned_cube(self, card):
        table = self._table("int_null", card, seed=3)
        cube = partitioned_cube(
            table, ["a", "b"], memory_rows=card // 3, aggregates=COUNT_AND_SUM
        )
        for grouping, result in cube.items():
            assert_matches_brute_force(result, table, sorted(grouping))

    @pytest.mark.parametrize("card", [16, 256, 257])
    def test_sort_regime_never_sorts_one_byte_codes(self, card, monkeypatch):
        sorted_itemsizes = []
        real_sort = np.sort

        def spy(array, *args, **kwargs):
            sorted_itemsizes.append(np.asarray(array).dtype.itemsize)
            return real_sort(array, *args, **kwargs)

        table = self._table("int", card, seed=4)
        monkeypatch.setattr(np, "sort", spy)
        for keys in (["a"], ["b"]):
            assert table.dictionary(keys[0])[0].itemsize <= 2
            result = group_by(table, keys, COUNT_AND_SUM, strategy="sort")
            assert_matches_brute_force(result, table, keys)
        assert sorted_itemsizes and min(sorted_itemsizes) >= 2


class TestStoredCodesFitFourBytes:
    """Below 2^32 distinct values, every stored code array is at most
    four bytes per row: base dictionaries, a materialized temp's
    realised dictionary and the estimator's sample codes."""

    @pytest.mark.parametrize("make", [make_sales, make_lineitem])
    def test_stored_codes(self, make, monkeypatch):
        table = make(20_000, seed=3)
        table.build_dictionaries()
        stored = [table.dictionary(column) for column in table.column_names]

        run_materialize = PlanExecutor._run_materialize

        def spy(self, physical, op, env, metrics):
            run_materialize(self, physical, op, env, metrics)
            for key in physical.op(op.source).keys:
                stored.append(env[op.source].cached_dictionary(key))

        monkeypatch.setattr(PlanExecutor, "_run_materialize", spy)
        session = Session.for_table(table, statistics="sampled")
        first, second = table.column_names[:2]
        both = frozenset([first, second])
        plan = LogicalPlan(
            session.base_table,
            (
                SubPlan(
                    PlanNode(both),
                    tuple(SubPlan.leaf(frozenset([c])) for c in both),
                    required=True,
                ),
            ),
            frozenset({both, frozenset([first]), frozenset([second])}),
        )
        session.execute(plan, parallelism=1)
        assert len(stored) == len(table.column_names) + 2
        for codes, values in stored:
            assert codes.dtype == code_dtype(len(values))
            assert codes.itemsize <= 4
        estimator = session.estimator
        for column in table.column_names:
            estimator.rows(frozenset([column, first]))
            codes, _ = estimator._sample_codes.codes(column)
            assert codes.dtype == table.dictionary(column)[0].dtype
            assert len(codes) == estimator.sample_size
