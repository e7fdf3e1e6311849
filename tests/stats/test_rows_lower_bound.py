"""The inequality bound-first costing rests on, on the statistics side.

Grouping by more columns only splits groups, so the sample's distinct
count ``d`` and singleton count ``f1`` never fall from a column set to a
superset; every estimator has a floor that is monotone in that pair; and
``rows_lower_bound`` — the floor at the known subsets' counts, under the
caps ``rows`` applies — is therefore never above ``rows``.  All of it is
asserted on floats with no tolerance.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.table import Table
from repro.engine.types import INT_NULL
from repro.stats import distinct
from repro.stats.cardinality import (
    ExactCardinalityEstimator,
    SampledCardinalityEstimator,
    rows_lower_bound_of,
)
from repro.stats.distinct import (
    ESTIMATORS,
    estimate_from_profile,
    profile_lower_bound,
    sample_profile,
)
from repro.stats.sampler import TableSampler
from tests.core.support import FakeEstimator

COLUMNS = ("a", "b", "c", "d")
KINDS = ("nulls", "strings", "near_unique", "zipf", "small")
SUBSETS = [
    frozenset(subset)
    for size in range(1, len(COLUMNS) + 1)
    for subset in combinations(COLUMNS, size)
]


def make_column(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "nulls":
        column = rng.integers(0, 6, n)
        column[rng.random(n) < 0.3] = INT_NULL
        return column
    if kind == "strings":
        return np.array(rng.choice(["", "a", "bb", "zz", "q"], n), dtype="U2")
    if kind == "near_unique":
        return rng.permutation(3 * n + 1)[:n]
    if kind == "zipf":
        return np.minimum(rng.zipf(1.5, n), 50)
    assert kind == "small"
    return rng.integers(0, 3, n)


@st.composite
def tables(draw):
    n = draw(st.sampled_from([0, 1, 2, 7, 60, 400]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kinds = [draw(st.sampled_from(KINDS)) for _ in COLUMNS]
    table = Table(
        "t", {c: make_column(k, n, rng) for c, k in zip(COLUMNS, kinds)}
    )
    # Below, at and above the table size: n < N scales up, n >= N is exact.
    sample_rows = draw(st.sampled_from([1, 5, 40, 400, 1_000]))
    return table, sample_rows


def tuple_codes(table: Table, columns: frozenset[str]) -> np.ndarray:
    """One code per row for the combination, by a dict of tuples (shares
    nothing with the estimator's radix arithmetic)."""
    codes: dict[tuple, int] = {}
    rows = zip(*(table[c].tolist() for c in sorted(columns)))
    return np.array(
        [codes.setdefault(row, len(codes)) for row in rows], dtype=np.int64
    )


@settings(max_examples=60, deadline=None)
@given(case=tables())
def test_d_and_f1_never_fall_under_inclusion(case):
    table, sample_rows = case
    sample = table.take(TableSampler(table, sample_rows=sample_rows).indices())
    profiles = {s: sample_profile(tuple_codes(sample, s)) for s in SUBSETS}
    for subset in SUBSETS:
        for superset in SUBSETS:
            if subset < superset:
                assert profiles[subset][0] <= profiles[superset][0]
                assert profiles[subset][1] <= profiles[superset][1]


def floor_holds(coarse, fine, sample_size, population, method) -> bool:
    """``fine`` refines ``coarse`` (same rows, groups only split): the
    floor at the coarse counts must not exceed the fine estimate."""
    d, f1, _ = sample_profile(coarse)
    floor = profile_lower_bound(d, f1, sample_size, population, method)
    estimate = estimate_from_profile(
        sample_profile(fine), sample_size, population, method
    )
    return floor <= estimate


#: 10 singletons and 20 doubletons, refined by nothing: Chao adds
#: ``f1^2 / 2 f2 = 2.5`` to ``d`` where GEE adds ``(sqrt(100) - 1) * 10``.
CHAO_BELOW_GEE = np.concatenate(
    [np.arange(10), np.repeat(np.arange(10, 30), 2)]
)
#: 1 singleton and 49 doubletons: the jackknife scales ``d`` by
#: ``1 / (1 - 0.99 / 99)`` — half a row — where GEE adds 9.
JACKKNIFE_BELOW_GEE = np.concatenate([[0], np.repeat(np.arange(1, 50), 2)])


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(0, 12), min_size=0, max_size=99),
    split=st.lists(st.integers(0, 3), min_size=99, max_size=99),
    scale=st.sampled_from([1, 2, 7, 100, 10_000]),
)
@example(values=CHAO_BELOW_GEE.tolist(), split=[0] * 99, scale=100)
@example(values=JACKKNIFE_BELOW_GEE.tolist(), split=[0] * 99, scale=100)
def test_profile_floor_never_above_the_estimate(method, values, split, scale):
    coarse = np.array(values, dtype=np.int64)
    fine = coarse * 4 + np.array(split[: len(values)], dtype=np.int64)
    n = len(values)
    # scale 1: the sample is the table, the estimate is the count itself.
    assert floor_holds(coarse, fine, n, max(n * scale, 1), method)
    assert floor_holds(coarse, coarse, n, max(n * scale, 1), method)


@pytest.mark.parametrize(
    "method, sample",
    [("chao", CHAO_BELOW_GEE), ("jackknife", JACKKNIFE_BELOW_GEE)],
)
def test_flooring_every_estimator_at_gee_breaks(monkeypatch, method, sample):
    """The mutants the table of floors exists to rule out: Chao's own
    formula is not monotone (``f2`` can grow), and neither it nor the
    jackknife stays above GEE — only ``hybrid`` does, by construction."""
    n = len(sample)
    assert floor_holds(sample, sample, n, 100 * n, method)
    monkeypatch.setitem(distinct.LOWER_BOUNDS, method, distinct.gee_estimate)
    assert not floor_holds(sample, sample, n, 100 * n, method)


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@settings(max_examples=40, deadline=None)
@given(
    case=tables(),
    known=st.tuples(
        st.sampled_from(SUBSETS), st.sampled_from(SUBSETS)
    ),
)
def test_rows_lower_bound_never_above_rows(method, case, known):
    """For every column set, given any two known sets (inside it or
    not): the floor is computed first, on an estimator that has no
    statistic for the set unless a known set is the set itself."""
    table, sample_rows = case
    for columns in SUBSETS:
        estimator = SampledCardinalityEstimator(
            table, sample_rows=sample_rows, method=method
        )
        floor = estimator.rows_lower_bound(columns, known)
        created = set(estimator.created_statistics)
        assert (columns in created) == (columns in known or len(columns) == 1)
        assert created <= {
            frozenset([c]) for c in columns
        } | {k for k in known if k <= columns}
        assert floor <= estimator.rows(columns)
        # Once the statistic exists the floor is the estimate.
        assert estimator.rows_lower_bound(columns, known) == estimator.rows(
            columns
        )


@settings(max_examples=40, deadline=None)
@given(
    case=tables(),
    known=st.tuples(st.sampled_from(SUBSETS), st.sampled_from(SUBSETS)),
)
def test_exact_rows_lower_bound_never_above_rows(case, known):
    table, _ = case
    for columns in SUBSETS:
        estimator = ExactCardinalityEstimator(table)
        assert estimator.rows_lower_bound(columns, known) <= estimator.rows(
            columns
        )


def test_estimator_that_cannot_bound_answers_with_rows():
    overrides = {frozenset("ab"): 7.0}
    estimator = FakeEstimator(100, {"a": 5.0, "b": 4.0}, overrides)
    bound = rows_lower_bound_of(estimator)
    assert bound(frozenset("ab"), (frozenset("a"), frozenset("b"))) == 7.0
