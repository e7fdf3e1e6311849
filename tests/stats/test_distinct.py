"""Unit + property tests for distinct-value estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.types import INT_NULL
from repro.stats.distinct import (
    ESTIMATORS,
    chao_estimate,
    estimate_distinct,
    gee_estimate,
    hybrid_estimate,
    jackknife_estimate,
    sample_profile,
)
from tests.stats.support import REFERENCE_ESTIMATORS, frequency_profile


class TestSampleProfile:
    def test_counts(self):
        # one singleton, one pair, one triple
        assert sample_profile(np.array([1, 1, 2, 3, 3, 3])) == (3, 1, 1)

    def test_empty(self):
        assert sample_profile(np.array([], dtype=np.int64)) == (0, 0, 0)

    def test_trailing_runs(self):
        # The last run is read against the two sentinel starts.
        assert sample_profile(np.array([5, 5, 7])) == (2, 1, 1)
        assert sample_profile(np.array([5, 7, 7])) == (2, 1, 1)
        assert sample_profile(np.array([7, 7, 7])) == (1, 0, 0)
        assert sample_profile(np.array([7])) == (1, 1, 0)

    def test_unsorted_and_null_sentinel(self):
        sample = np.array([3, INT_NULL, 3, 0, INT_NULL, 9], dtype=np.int64)
        assert sample_profile(sample) == (4, 2, 2)


class TestEstimatorBasics:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_full_sample_is_exact(self, name):
        sample = np.array([1, 2, 2, 3])
        assert estimate_distinct(sample, 4, 4, name) == 3.0

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_empty_sample(self, name):
        sample = np.array([], dtype=np.int64)
        assert estimate_distinct(sample, 0, 100, name) == 0.0

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            estimate_distinct(np.array([1]), 1, 10, "magic")

    def test_gee_all_singletons(self):
        # GEE = sqrt(N/n) * f1 for a duplicate-free sample.
        sample = np.arange(100)
        assert gee_estimate(sample_profile(sample), 100, 10_000) == pytest.approx(
            np.sqrt(100) * 100
        )

    def test_chao_formula(self):
        # d=3, f1=1, f2=1 -> 3 + 1/2.
        sample = np.array([1, 1, 2, 3, 3, 3])
        assert chao_estimate(sample_profile(sample), 6, 1000) == pytest.approx(
            3.5
        )

    def test_chao_no_pairs_falls_back(self):
        profile = sample_profile(np.array([1, 2, 3]))
        assert chao_estimate(profile, 3, 900) == gee_estimate(profile, 3, 900)

    def test_jackknife_correction(self):
        sample = np.array([1, 1, 2])  # d=2, f1=1
        est = jackknife_estimate(sample_profile(sample), 3, 300)
        assert est > 2.0

    def test_hybrid_key_detection(self):
        # Duplicate-free sample of a key column scales linearly.
        profile = sample_profile(np.arange(1000))
        assert hybrid_estimate(profile, 1000, 50_000) == pytest.approx(50_000)

    def test_hybrid_birthday_collisions_use_chao(self):
        # Near-key with a couple of collisions: Chao rescues the GEE
        # underestimate (the failure mode the optimizer hit in practice).
        profile = sample_profile(np.concatenate([np.arange(998), [0, 1]]))
        est = hybrid_estimate(profile, 1000, 100_000)
        gee = gee_estimate(profile, 1000, 100_000)
        assert est > gee

    def test_hybrid_dense_column_matches_gee(self):
        rng = np.random.default_rng(0)
        profile = sample_profile(rng.integers(0, 20, 1000))
        assert hybrid_estimate(profile, 1000, 100_000) == pytest.approx(
            gee_estimate(profile, 1000, 100_000)
        )


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(0, 50), min_size=1, max_size=300),
    population_factor=st.integers(1, 100),
)
def test_estimates_clamped(values, population_factor):
    """Property: every estimator stays within [observed d, population]."""
    sample = np.array(values)
    n = len(values)
    population = n * population_factor
    d = len(np.unique(sample))
    for name in ESTIMATORS:
        estimate = estimate_distinct(sample, n, population, name)
        assert d <= estimate <= population


@settings(max_examples=30, deadline=None)
@given(true_distinct=st.integers(2, 500), seed=st.integers(0, 1000))
def test_gee_reasonable_on_uniform_data(true_distinct, seed):
    """GEE on uniform data stays within its sqrt(N/n) guarantee band."""
    rng = np.random.default_rng(seed)
    population = 20_000
    n = 2_000
    column = rng.integers(0, true_distinct, population)
    sample = rng.choice(column, n, replace=False)
    estimate = estimate_distinct(sample, n, population, "gee")
    ratio = np.sqrt(population / n)
    actual = len(np.unique(column))
    assert actual / (ratio * 1.5) <= estimate <= actual * ratio * 1.5


int64_samples = st.one_of(
    st.lists(
        st.sampled_from([INT_NULL, -1, 0, 1, 2, 3, 2**62]), max_size=60
    ),  # few values: long runs, all-equal, the NULL sentinel, extremes
    st.lists(st.integers(0, 40), max_size=200),
    st.integers(0, 300).map(lambda n: list(range(n))),  # all distinct
    st.tuples(st.integers(-5, 5), st.integers(0, 300)).map(
        lambda vn: [vn[0]] * vn[1]
    ),  # all equal
)


@settings(max_examples=200, deadline=None)
@given(values=int64_samples)
def test_sample_profile_matches_frequency_profile(values):
    """Property: the single sorted pass reads the same d, f1, f2 as the
    full frequency-of-frequencies array."""
    sample = np.array(values, dtype=np.int64)
    d, f = frequency_profile(sample)
    f1 = int(f[0]) if len(f) >= 1 else 0
    f2 = int(f[1]) if len(f) >= 2 else 0
    assert sample_profile(sample) == (d, f1, f2)


@settings(max_examples=200, deadline=None)
@given(
    values=int64_samples,
    population_factor=st.sampled_from([0.5, 1, 1.5, 7, 25, 1000]),
)
def test_estimates_equal_reference_formulas(values, population_factor):
    """Property: every estimator returns the very float the np.unique-
    per-estimator formulas returned (``==``, not approx)."""
    sample = np.array(values, dtype=np.int64)
    n = len(values)
    population = int(n * population_factor)
    for name, reference in REFERENCE_ESTIMATORS.items():
        estimate = estimate_distinct(sample, n, population, name)
        assert estimate == reference(sample, n, population), name
        assert type(estimate) is float
