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
from repro.core.plan import naive_plan
from repro.engine import aggregation, dictcache
from repro.engine.aggregation import (
    DENSE_DOMAIN_FLOOR,
    DENSE_DOMAIN_SLACK,
    AggregateSpec,
    group_by,
)
from repro.engine.dictcache import encode_column
from repro.engine.morsel import MorselGrouping, compute_morsel_groupings
from repro.engine.table import Table
from repro.engine.types import INT_NULL
from repro.physical.plan import Materialize
from repro.workloads.queries import two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales
from tests.engine.test_morsel import assert_tables_bit_identical

COUNT = [AggregateSpec.count_star()]
COUNT_AND_SUM = [AggregateSpec.count_star(), AggregateSpec("sum", "v", "s")]
COUNT_AND_SUM_SALES = [
    AggregateSpec.count_star(),
    AggregateSpec("sum", "quantity", "s"),
]


def assert_dictionaries_exact(result: Table, keys) -> None:
    """``result.dictionary(k)`` is bit for bit the raw-value encode."""
    for key in keys:
        codes, values = result.dictionary(key)
        want_codes, want_values = encode_column(result[key])
        assert codes.dtype == want_codes.dtype == np.int64
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


def reference_rerank(parent_codes, parent_uniques):
    """The re-rank as it was with ``int64`` codes: one ``np.unique``."""
    uniq_codes, inverse = np.unique(parent_codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), parent_uniques[uniq_codes]


class TestNarrowCodes:
    """Narrow deferred codes realise exactly the ``int64`` dictionary."""

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
        assert got_codes.dtype == want_codes.dtype == np.int64
        assert got_values.dtype == want_values.dtype
        np.testing.assert_array_equal(got_codes, want_codes)
        np.testing.assert_array_equal(got_values, want_values)

    def test_empty_input(self):
        uniques = np.array([], dtype=np.int64)
        got = aggregation._rerank_dictionary(
            aggregation.narrow_codes(np.array([], dtype=np.int64), 0), uniques
        )
        want = reference_rerank(np.array([], dtype=np.int64), uniques)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert got_array.shape == want_array.shape == (0,)

    def test_wide_dictionaries_keep_int64(self):
        codes = np.array([0, 5], dtype=np.int64)
        assert aggregation.narrow_codes(codes, 1 << 32).dtype == np.uint32
        assert aggregation.narrow_codes(codes, (1 << 32) + 1) is codes
