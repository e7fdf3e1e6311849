"""Strings stored as UTF-8 bytes: the byte encoder against its reference,
and the string semantics the bytes must keep.

A table stores every string column as fixed-width UTF-8 ``S``.  The
packed-word encoder must give ``np.unique``'s codes and distinct values
on such a column at any byte width, and coercing ``str`` input to bytes
must change nothing a query can see: dictionary order, MIN/MAX and
``LEN`` read as they do on the decoded strings.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.dictcache import encode_column
from repro.engine.expressions import Predicate, length_of
from repro.engine.table import Table
from repro.engine.types import STR_NULL, coerce_column
from tests.engine.test_dictcache import assert_same_encoding

#: Characters of each UTF-8 length: 1, 2, 3 and 4 bytes (NUL and
#: surrogates excluded: NUL is padding in a fixed-width value, and
#: surrogates are not text).
UTF8_CHARACTERS = [
    st.characters(min_codepoint=0x01, max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(
        min_codepoint=0x800, max_codepoint=0xFFFF, exclude_categories=("Cs",)
    ),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
]

#: Byte widths that fall short of, fill and straddle the 8-byte words.
WIDTHS = (1, 7, 8, 9, 16)


def fit(text: str, width: int) -> str:
    """``text`` cut at a character boundary to at most ``width`` UTF-8 bytes."""
    while len(text.encode()) > width:
        text = text[:-1]
    return text


@st.composite
def texts(draw, width=None):
    """A column of ``str`` values, each at most ``width`` UTF-8 bytes
    (a drawn one of :data:`WIDTHS` when None): a small alphabet mixing
    1- to 4-byte characters, ``""`` NULLs, and few-distinct or
    near-unique rows."""
    width = draw(st.sampled_from(WIDTHS)) if width is None else width
    alphabet = draw(st.lists(st.one_of(UTF8_CHARACTERS), min_size=1, max_size=4))
    text = st.text(alphabet=alphabet, max_size=width).map(lambda t: fit(t, width))
    if draw(st.booleans()):
        pool = draw(st.lists(text, min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), max_size=40))
    else:
        values = draw(st.lists(text, max_size=40))
    if values and draw(st.booleans()):
        values.append("")
    return values, width


@st.composite
def byte_columns(draw):
    """An ``S{width}`` column of UTF-8 values, contiguous or strided."""
    values, width = draw(texts())
    array = np.array([v.encode() for v in values], dtype=f"S{width}")
    if draw(st.booleans()):
        spaced = np.full(2 * len(array), b"~", dtype=array.dtype)
        spaced[::2] = array
        array = spaced[::2]
    return array


class TestByteEncoder:
    @settings(max_examples=400, deadline=None)
    @given(byte_columns())
    @example(np.array([], dtype="S8"))
    @example(np.array([b"", b"a", b""], dtype="S1"))
    @example(np.array("é € \U0001F600 a".encode().split(), dtype="S4"))
    @example(
        # Rows equal in their first word that differ in a character
        # straddling the word boundary.
        np.array(
            [s.encode() for s in ("aaaaaaaé", "aaaaaaaè", "aaaaaaaa", "aaaaaaaaé")],
            dtype="S16",
        )
    )
    def test_matches_reference(self, array):
        """Codes and distinct values equal ``np.unique``'s, the distinct
        values in the column's own ``S`` dtype."""
        assert_same_encoding(array)

    @settings(max_examples=200, deadline=None)
    @given(texts())
    def test_coercion_keeps_dictionary_order(self, drawn):
        """Encoding the ``str`` column and its UTF-8 coercion gives the
        same codes, and the byte dictionary decodes to the ``str`` one."""
        values, width = drawn
        text = np.array(values, dtype=f"U{width}")
        stored = coerce_column(text)
        assert stored.dtype.kind == "S"
        codes, uniques = encode_column(stored)
        text_codes, text_uniques = encode_column(text)
        np.testing.assert_array_equal(codes, text_codes)
        np.testing.assert_array_equal(np.char.decode(uniques, "utf-8"), text_uniques)
        assert [u.decode() for u in uniques] == sorted(set(values))


class TestStringSemantics:
    @settings(max_examples=200, deadline=None)
    @given(texts(width=16), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_min_max_and_len_equal_python(self, drawn, n_groups, random):
        """String MIN/MAX per group and ``LEN`` per row, on non-ASCII
        UTF-8 bytes, equal Python's ``min``, ``max`` and ``len`` on the
        decoded ``str`` values (``""`` is NULL and skipped)."""
        values, _ = drawn
        keys = [random.randrange(n_groups) for _ in values]
        table = Table(
            "t",
            {
                "k": np.array(keys, dtype=np.int64),
                "s": np.array(values, dtype="U16"),
            },
        )
        result = group_by(
            table,
            ["k"],
            [AggregateSpec("min", "s", "lo"), AggregateSpec("max", "s", "hi")],
        )
        for key, lo, hi in zip(result["k"], result["lo"], result["hi"]):
            present = [v for k, v in zip(keys, values) if k == key and v != ""]
            assert lo.decode() == (min(present) if present else "")
            assert hi.decode() == (max(present) if present else "")
        lengths = length_of("s").evaluate(table)
        assert lengths.tolist() == [len(v) for v in values]

    def test_predicate_encodes_str_literals(self):
        """A ``str`` literal compares with the bytes by code point."""
        table = Table("t", {"s": ["b", "é", "a", "日本", ""]})
        assert Predicate("s", "==", "é").mask(table).tolist() == [
            False, True, False, False, False
        ]
        assert Predicate("s", ">", "b").mask(table).tolist() == [
            False, True, False, True, False
        ]

    def test_null_sentinel_is_empty_bytes(self):
        table = Table("t", {"s": ["é", None, "a"]})
        assert table["s"].tolist() == ["é".encode(), STR_NULL, b"a"]
        assert table.to_rows() == [("é",), ("",), ("a",)]
