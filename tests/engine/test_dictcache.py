"""Unit tests for the plan-wide dictionary-encoding cache and its
O(n) factorize fast path."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.dictcache import (
    DENSE_RANGE_FLOOR,
    DictionaryCache,
    code_dtype,
    encode_column,
    legacy_encode,
)
from repro.engine.table import Table
from repro.engine.types import INT_NULL, STR_NULL, SchemaError


def assert_same_encoding(array):
    """``encode_column`` gives ``legacy_encode``'s code values and
    distinct values, the codes in the narrowest dtype that holds them."""
    codes, uniques = encode_column(array)
    ref_codes, ref_uniques = legacy_encode(array)
    np.testing.assert_array_equal(codes, ref_codes)
    np.testing.assert_array_equal(uniques, ref_uniques)
    assert codes.dtype == code_dtype(len(ref_uniques))
    assert uniques.dtype == ref_uniques.dtype


def with_layout(array, big_endian, strided):
    """The same values as ``array`` in another byte order and/or stride."""
    if big_endian:
        array = array.astype(array.dtype.newbyteorder(">"))
    if strided:
        spaced = np.full(3 * len(array), "~", dtype=array.dtype)
        spaced[::3] = array
        array = spaced[::3]
    return array


#: Characters the string kernel packs into 1, 2 and 4 bytes
#: (surrogates excluded: they are not text).
CHARACTERS = [
    st.characters(max_codepoint=0xFF),
    st.characters(
        min_codepoint=0x100, max_codepoint=0xFFFF, exclude_categories=("Cs",)
    ),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
]


@st.composite
def string_columns(draw):
    """A ``U`` column in any layout: width 1-40, a small alphabet that
    may mix NUL and wider characters in, and all-equal, few-distinct,
    near-unique or all-distinct rows."""
    width = draw(st.integers(1, 40))
    character = st.sampled_from("ab\x00") | st.one_of(CHARACTERS)
    alphabet = draw(st.lists(character, min_size=1, max_size=4))
    text = st.text(alphabet=alphabet, max_size=width)
    if draw(st.booleans()):
        pool = draw(st.lists(text, min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), max_size=40))
    else:
        values = draw(st.lists(text, max_size=40, unique=True))
        if values and draw(st.booleans()):
            values.append(draw(st.sampled_from(values)))
    array = np.array(values, dtype=f"U{width}")
    return with_layout(array, draw(st.booleans()), draw(st.booleans()))


@st.composite
def shared_prefix_columns(draw):
    """Rows that share 8- or 16-byte prefixes and differ only in a later
    word: whole-word prefixes at 1, 2 or 4 bytes a character, with
    non-ASCII characters mixed into both prefix and tail."""
    char_bytes = draw(st.sampled_from([1, 2, 4]))
    widest = CHARACTERS[{1: 0, 2: 1, 4: 2}[char_bytes]]
    # Every prefix starts with a character of the chosen width, so the
    # kernel packs it at char_bytes and the prefix fills whole words.
    lead = draw(widest)
    prefix_chars = draw(st.sampled_from([8, 16])) // char_bytes
    tiny = st.sampled_from("ab\u00e9") | widest
    alphabet = draw(st.lists(tiny, min_size=1, max_size=3))
    prefixes = draw(
        st.lists(
            st.text(
                alphabet=alphabet,
                min_size=prefix_chars - 1,
                max_size=prefix_chars - 1,
            ).map(lambda rest: lead + rest),
            min_size=1,
            max_size=3,
        )
    )
    tails = draw(
        st.lists(st.text(alphabet=alphabet, max_size=12), min_size=1, max_size=4)
    )
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(prefixes), st.sampled_from(tails)),
            max_size=40,
        )
    )
    width = prefix_chars + 12 + draw(st.integers(0, 3))
    array = np.array([p + t for p, t in rows], dtype=f"U{width}")
    return with_layout(array, draw(st.booleans()), draw(st.booleans()))


class TestEncodeColumn:
    def test_dense_int_fast_path(self):
        assert_same_encoding(np.array([5, 3, 5, 7, 3, 3], dtype=np.int64))

    def test_negative_values(self):
        assert_same_encoding(np.array([-4, 2, -4, 0, 9], dtype=np.int64))

    def test_wide_range_falls_back(self):
        # Range far beyond the dense budget: must still match np.unique.
        assert_same_encoding(
            np.array([0, 10**15, 3, -(10**15)], dtype=np.int64)
        )

    def test_int_null_sentinel_falls_back(self):
        # INT_NULL is int64 min; the span does not fit the dense budget
        # (or even int64), so the sort-based path must take over.
        assert_same_encoding(np.array([INT_NULL, 1, 2, INT_NULL, 1]))

    def test_string_column(self):
        assert_same_encoding(np.array(["b", "a", "b", ""], dtype="U3"))

    def test_strings_across_word_boundaries(self):
        # 1-, 2- and 4-byte characters at widths around 8/16/24 bytes;
        # rows differ only in their last character or only in their first.
        for char in ("a", "\u0101", "\U00010001"):
            for width in range(1, 26):
                stem = char * (width - 1)
                array = np.array(
                    [stem + "b", stem + "a", "b" + stem, stem, stem + "a"],
                    dtype=f"U{width}",
                )
                assert_same_encoding(array)

    @settings(max_examples=600, deadline=None)
    @given(string_columns() | shared_prefix_columns())
    @example(np.array([], dtype="U30"))
    @example(np.array(["zz"], dtype=">U30"))
    @example(np.full(2, "same", dtype="U9"))
    @example(
        with_layout(
            np.array(["b", "a\x00b", "b", STR_NULL, "\u00e9", "\U0001F600"]),
            big_endian=True,
            strided=True,
        )
    )
    def test_strings_match_reference(self, array):
        assert_same_encoding(array)

    def test_word_that_splits_a_group_is_ranked(self):
        # The first word leaves groups {AAAAAAAA1, AAAAAAAA2} and
        # {BBBBBBBB1}; the second word ("1", "2", "1") splits the first
        # of them, so it must be ranked, not skipped.
        assert_same_encoding(
            np.array(["AAAAAAAA1", "AAAAAAAA2", "BBBBBBBB1"], dtype="U9")
        )

    def test_fold_past_one_byte_of_codes(self):
        # 30 first words x 30 second words: the fold's composite runs to
        # 900, past the 256 codes the one-byte rank of each word holds,
        # so it must be taken in a wider dtype.
        rng = np.random.default_rng(5)
        heads = [f"{i:08d}" for i in range(30)]
        tails = [f"{i:08d}" for i in range(30)]
        rows = [h + t for h in heads for t in tails]
        assert_same_encoding(np.array(rng.permutation(rows), dtype="U16"))

    def test_float_column(self):
        assert_same_encoding(np.array([2.5, 1.0, 2.5, -0.5]))

    def test_empty(self):
        assert_same_encoding(np.array([], dtype=np.int64))
        assert_same_encoding(np.array([], dtype="U1"))

    def test_single_value(self):
        assert_same_encoding(np.array([42], dtype=np.int64))

    def test_random_ints_match_reference(self):
        rng = np.random.default_rng(7)
        for span in (10, 1_000, DENSE_RANGE_FLOOR * 8):
            array = rng.integers(-span, span, size=2_000)
            assert_same_encoding(array)

    def test_codes_follow_sorted_value_order(self):
        codes, uniques = encode_column(np.array([30, 10, 20, 10]))
        assert list(uniques) == [10, 20, 30]
        assert list(codes) == [2, 0, 1, 0]

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([-100, 100, 5], np.int8),
            ([-128, 127, 0, 127], np.int8),
            ([-30000, 30000, 7], np.int16),
            ([0, 255, 7, 255], np.uint8),
            ([0, 65535, 3], np.uint16),
            ([2**64 - 1, 2**64 - 5, 2**64 - 1, 2**64 - 3], np.uint64),
            ([0, 2**64 - 1, 5], np.uint64),
        ],
    )
    def test_narrow_and_unsigned_inputs(self, values, dtype):
        # The shift by the minimum is taken in 64 bits: in the input's
        # own dtype int8 100 - (-100) wraps to -56.
        array = np.array(values, dtype=dtype)
        assert_same_encoding(array)
        _, uniques = encode_column(array)
        np.testing.assert_array_equal(uniques, sorted(set(values)))

    @settings(max_examples=200, deadline=None)
    @given(
        dtype=st.sampled_from(
            [np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64]
        ),
        seed=st.integers(0, 10_000),
        n=st.integers(1, 300),
    )
    def test_every_integer_dtype_matches_reference(self, dtype, seed, n):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(seed)
        array = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
        assert_same_encoding(array)

    def test_floats_with_nan_and_signed_zero(self):
        assert_same_encoding(
            np.array([np.nan, 0.0, -0.0, np.nan, 1.5, -np.inf, np.nan])
        )
        assert_same_encoding(np.array([np.nan, np.nan]))


class TestDictionaryCache:
    def make_table(self):
        return Table("t", {"a": [3, 1, 3, 2], "b": ["x", "y", "x", "x"]})

    def test_codes_match_table_dictionary(self):
        table = self.make_table()
        cache = DictionaryCache()
        codes, uniques = cache.codes(table, "a")
        ref_codes, ref_uniques = table.dictionary("a")
        np.testing.assert_array_equal(codes, ref_codes)
        np.testing.assert_array_equal(uniques, ref_uniques)

    def test_hits_and_misses_counted(self):
        table = self.make_table()
        cache = DictionaryCache()
        cache.codes(table, "a")
        cache.codes(table, "a")
        cache.codes(table, "b")
        assert cache.stats() == {"hits": 1, "misses": 2, "evictions": 0}

    def test_precomputed_dictionary_is_a_hit(self):
        table = self.make_table()
        table.build_dictionaries()
        cache = DictionaryCache()
        cache.codes(table, "a")
        assert cache.stats() == {"hits": 1, "misses": 0, "evictions": 0}

    def test_distinct_tables_not_conflated(self):
        t1 = Table("t1", {"a": [1, 2]})
        t2 = Table("t2", {"a": [5, 5]})
        cache = DictionaryCache()
        _, u1 = cache.codes(t1, "a")
        _, u2 = cache.codes(t2, "a")
        assert list(u1) == [1, 2]
        assert list(u2) == [5]

    def test_concurrent_access_encodes_consistently(self):
        rng = np.random.default_rng(1)
        table = Table("big", {"k": rng.integers(0, 500, 20_000)})
        cache = DictionaryCache()
        results = []
        errors = []

        def worker():
            try:
                results.append(cache.codes(table, "k"))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        ref_codes, ref_uniques = legacy_encode(table["k"])
        for codes, uniques in results:
            np.testing.assert_array_equal(codes, ref_codes)
            np.testing.assert_array_equal(uniques, ref_uniques)


class TestTableDictionaryIntegration:
    def test_cached_dictionary_never_encodes(self):
        table = Table("t", {"a": [1, 2, 1]})
        assert table.cached_dictionary("a") is None
        table.dictionary("a")
        assert table.cached_dictionary("a") is not None

    def test_set_dictionary_requires_column(self):
        table = Table("t", {"a": [1]})
        with pytest.raises(SchemaError):
            table.set_dictionary(
                "missing", np.zeros(1, dtype=np.int64), np.array([1])
            )


class TestEviction:
    def test_evict_drops_dictionaries_and_counts(self):
        table = Table("t", {"a": [3, 1, 3], "b": ["x", "y", "x"]})
        cache = DictionaryCache()
        cache.codes(table, "a")
        cache.codes(table, "b")
        assert cache.evict(table) == 2
        assert table.cached_dictionary("a") is None
        assert cache.stats()["evictions"] == 2
        # Next lookup rebuilds from scratch: a miss, not a stale hit.
        cache.codes(table, "a")
        assert cache.stats()["misses"] == 3

    def test_evict_table_without_dictionaries_is_noop(self):
        table = Table("t", {"a": [1, 2]})
        cache = DictionaryCache()
        assert cache.evict(table) == 0
        assert cache.stats()["evictions"] == 0

    def test_drop_dictionaries_counts(self):
        table = Table("t", {"a": [1, 2, 1], "b": ["x", "y", "y"]})
        table.build_dictionaries()
        assert table.drop_dictionaries() == 2
        assert table.drop_dictionaries() == 0

    def test_concurrent_codes_during_evict(self):
        rng = np.random.default_rng(3)
        table = Table("big", {"k": rng.integers(0, 200, 10_000)})
        cache = DictionaryCache()
        ref_codes, ref_uniques = legacy_encode(table["k"])
        errors = []
        results = []

        def reader():
            try:
                for _ in range(20):
                    results.append(cache.codes(table, "k"))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def evictor():
            try:
                for _ in range(20):
                    cache.evict(table)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(6)] + [
            threading.Thread(target=evictor) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every served encoding is correct, evicted or not.
        for codes, uniques in results:
            np.testing.assert_array_equal(codes, ref_codes)
            np.testing.assert_array_equal(uniques, ref_uniques)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 20

    @pytest.mark.parametrize("attempt", range(20))
    @pytest.mark.parametrize("one_run_fails", [False, True])
    def test_concurrent_executor_runs_with_eviction(
        self, attempt, one_run_fails
    ):
        from repro.api import Session
        from repro.obs import Tracer
        from repro.workloads.sales import make_sales

        class FailingTracer(Tracer):
            """Raises once the plan's temp is materialized."""

            def span_under(self, parent, name, **attributes):
                if name == "execute.reaggregate":
                    raise RuntimeError("injected mid-plan failure")
                return super().span_under(parent, name, **attributes)

        table = make_sales(5_000)
        session = Session.for_table(table, statistics="exact")
        catalog = session.catalog
        queries = [frozenset({"state"}), frozenset({"region", "state"})]
        plan = session.optimize(queries).plan
        expected = session.execute(plan)
        temp_bytes_before = catalog.current_temp_bytes
        errors = []

        def runner(seed: int):
            try:
                for _ in range(3):
                    outcome = session.execute(plan)
                    for query in queries:
                        got = outcome.results[query].to_rows()
                        want = expected.results[query].to_rows()
                        assert got == want
                    if seed % 2:
                        table.drop_dictionaries()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def failing_runner():
            try:
                for _ in range(3):
                    with pytest.raises(RuntimeError, match="injected"):
                        session.execute(plan, tracer=FailingTracer())
            # BaseException: pytest.raises reports a miss with one.
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=runner, args=(seed,))
            for seed in range(8)
        ]
        if one_run_fails:
            threads.append(threading.Thread(target=failing_runner))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert catalog.temp_names() == ()
        assert catalog.current_temp_bytes == temp_bytes_before
