"""Sampling-based distinct-value estimation (Haas et al., VLDB 1995).

The paper (Section 3.2.1) assumes "known techniques for estimating number
of distinct values such as [13] may be used" — reference [13] is Haas,
Naughton, Seshadri & Stokes.  This module implements the estimators from
that line of work over a uniform row sample:

* **GEE** (Guaranteed-Error Estimator, Charikar et al. / Haas et al.):
  ``sqrt(N/n) * f1 + sum_{i>=2} f_i`` — a proven worst-case ratio bound.
* **Chao**: ``d + f1^2 / (2 * f2)`` — good for skewed data.
* **First-order jackknife**: ``d / (1 - (1 - q) * f1 / n)`` style
  correction.
* **Hybrid**: max(GEE, Chao), linear for duplicate-free samples.

Of the sample's *frequency-of-frequencies* profile (``f_i`` = number of
distinct values appearing exactly ``i`` times) the estimators read only
``d = sum f_i``, ``f1`` and ``f2``; :func:`sample_profile` computes that
triple in one sorted pass and every estimator takes it, so creating a
statistic sorts the sample once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: ``(d, f1, f2)``: distinct values in the sample, and how many of them
#: appear exactly once / exactly twice.
SampleProfile = tuple[int, int, int]
#: ``(profile, sample_size, population) -> estimate``.
Estimator = Callable[[SampleProfile, int, int], float]


def sample_profile(sample_values: np.ndarray) -> SampleProfile:
    """The ``(d, f1, f2)`` triple of a sample.

    The sorted sample is cut into runs of equal values.  With ``start[i]``
    marking the first position of a run (and two sentinel starts past the
    end), a run beginning at ``i`` is a singleton when ``start[i + 1]``
    and a doubleton when ``~start[i + 1] & start[i + 2]``.
    """
    values = np.sort(sample_values, axis=None)
    n = len(values)
    if n == 0:
        return 0, 0, 0
    start = np.ones(n + 2, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=start[1:n])
    here, next1, next2 = start[:n], start[1 : n + 1], start[2:]
    d = np.count_nonzero(here)
    f1 = np.count_nonzero(here & next1)
    f2 = np.count_nonzero(here & ~next1 & next2)
    return d, f1, f2


def _clamp(estimate, d, population: int):
    """Estimates can never be below the observed d or above the table.

    Like every floor below, this takes floats and arrays alike: the
    search prices a walk's pairs as one array expression, and the same
    operations in the same order make it equal to the scalar floor bit
    for bit.
    """
    return np.minimum(np.maximum(estimate, d), population)


def gee_estimate(
    profile: SampleProfile, sample_size: int, population: int
) -> float:
    """Guaranteed-Error Estimator of the number of distinct values.

    Args:
        profile: :func:`sample_profile` of the sampled column values.
        sample_size: n, the number of sampled rows.
        population: N, the number of rows in the full table.
    """
    d, f1, _ = profile
    rest = d - f1
    estimate = np.sqrt(population / max(sample_size, 1)) * f1 + rest
    return _clamp(estimate, d, population)


def chao_estimate(
    profile: SampleProfile, sample_size: int, population: int
) -> float:
    """Chao (1984) lower-bound estimator: d + f1^2 / (2 f2)."""
    d, f1, f2 = profile
    if f2 == 0:
        # Degenerate profile: fall back to the conservative GEE form.
        return gee_estimate(profile, sample_size, population)
    estimate = d + (f1 * f1) / (2.0 * f2)
    return _clamp(estimate, d, population)


def jackknife_estimate(
    profile: SampleProfile, sample_size: int, population: int
) -> float:
    """First-order jackknife estimator d_J1 = d / (1 - (1-q) f1 / n)."""
    d, f1, _ = profile
    q = sample_size / population
    denominator = 1.0 - (1.0 - q) * f1 / max(sample_size, 1)
    # A non-positive denominator reads as the whole table.
    positive = denominator > 0
    estimate = np.where(
        positive, d / np.where(positive, denominator, 1.0), population
    )
    return _clamp(estimate, d, population)


def hybrid_estimate(
    profile: SampleProfile, sample_size: int, population: int
) -> float:
    """max(GEE, Chao), with a linear scale-up for duplicate-free samples.

    GEE's sqrt(N/n) scale-up is a worst-case-ratio guarantee, and for a
    *key-like* attribute set it underestimates by that same sqrt(N/n)
    factor — which would make the optimizer materialize near-table-sized
    intermediates.  Chao's ``d + f1^2 / (2 f2)`` explodes exactly in
    that regime (a handful of birthday-collision duplicates among
    singletons), so taking the maximum of the two lower-bound
    estimators recovers near-key cardinalities while leaving dense
    attributes to GEE.  A sample with no duplicates at all (f2 = 0) is
    treated as a key and scaled linearly.
    """
    d, f1, f2 = profile
    gee = gee_estimate(profile, sample_size, population)
    if f1 == d and f2 == 0:
        linear = d * population / max(sample_size, 1)
        return _clamp(max(gee, linear), d, population)
    if f2 > 0:
        chao = d + (f1 * f1) / (2.0 * f2)
        return _clamp(max(gee, chao), d, population)
    return _clamp(gee, d, population)


ESTIMATORS = {
    "gee": gee_estimate,
    "chao": chao_estimate,
    "jackknife": jackknife_estimate,
    "hybrid": hybrid_estimate,
}


def _floor_d(profile: SampleProfile, sample_size: int, population: int):
    """The observed distinct count, which ``_clamp`` never goes below."""
    return np.asarray(profile[0], dtype=np.float64)


#: For each estimator, a function of ``(d, f1)`` alone that is
#: non-decreasing in both and never above the estimator itself.  GEE and
#: the jackknife are their own floor: neither reads ``f2``, the jackknife
#: is a chain of monotone operations, and raw GEE is
#: ``d + (sqrt(N/n) - 1) * f1``.  ``hybrid`` is a clamped maximum with
#: GEE.  Chao's ``f1^2 / (2 f2)`` can fall when a group splits, so only
#: ``d`` is safe there.
LOWER_BOUNDS = {
    "gee": gee_estimate,
    "chao": _floor_d,
    "jackknife": jackknife_estimate,
    "hybrid": gee_estimate,
}


def _scale_up(
    table: dict[str, Estimator],
    profile: SampleProfile,
    sample_size: int,
    population: int,
    method: str,
):
    """Apply ``table[method]`` to a profile: an empty sample gives 0 and a
    sample covering the whole table is exact, whatever the method.
    ``d`` and ``f1`` may be arrays when the method takes them (the
    entries of :data:`LOWER_BOUNDS` do)."""
    try:
        function = table[method]
    except KeyError:
        raise ValueError(
            f"unknown distinct estimator {method!r}; "
            f"choose from {sorted(ESTIMATORS)}"
        ) from None
    d = profile[0]
    if sample_size >= population:
        scaled = np.asarray(d, dtype=np.float64)
    else:
        scaled = function(profile, sample_size, population)
    return np.where(d == 0, 0.0, scaled)


def estimate_from_profile(
    profile: SampleProfile, sample_size: int, population: int, method: str
) -> float:
    """Scale a sample's profile up to the table with the named estimator."""
    return float(
        _scale_up(ESTIMATORS, profile, sample_size, population, method)
    )


def profile_lower_bound(d, f1, sample_size: int, population: int, method: str):
    """A floor under :func:`estimate_from_profile` for every profile whose
    ``d`` and ``f1`` are at least the given ones.

    Grouping by more columns only splits the sample's groups, so both
    counts of a column set bound those of every superset from below:
    this is the estimate a superset can never fall under.  The floor
    holds in floating point as well — every step is a correctly rounded
    monotone operation, except GEE's ``d - f1`` term, whose decrease is
    outweighed by ``sqrt(N/n) * f1`` for any sample under ~4e7 rows.

    ``d`` and ``f1`` may be equal-shaped arrays (one floor each) or
    numbers (a 0-d array back).
    """
    return _scale_up(
        LOWER_BOUNDS, (d, f1, 0), sample_size, population, method
    )


def estimate_distinct(
    sample_values: np.ndarray,
    sample_size: int,
    population: int,
    method: str,
) -> float:
    """Estimate the distinct values of a column from a sample of it."""
    return estimate_from_profile(
        sample_profile(sample_values), sample_size, population, method
    )
