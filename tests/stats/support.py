"""Reference distinct-value estimators over the full frequency profile.

A frozen transcription of ``repro.stats.distinct`` as it was before the
estimators took the single-pass ``(d, f1, f2)`` triple: every estimator
runs ``np.unique`` on the raw sample and reads the frequency-of-
frequencies array.  ``tests/stats/test_distinct.py`` requires the
production estimators to return the same floats, bit for bit.  Do not
edit these to track the production code — that is what they check.
"""

from __future__ import annotations

import numpy as np


def frequency_profile(sample_values):
    """(d, f): d distinct values; f[i] = #values seen exactly i+1 times."""
    _, counts = np.unique(sample_values, return_counts=True)
    d = len(counts)
    if d == 0:
        return 0, np.zeros(0, dtype=np.int64)
    freq_of_freq = np.bincount(counts)[1:]
    return d, freq_of_freq.astype(np.int64)


def _clamp(estimate, d, population):
    return float(min(max(estimate, d), population))


def gee_estimate(sample_values, sample_size, population):
    d, f = frequency_profile(sample_values)
    if d == 0:
        return 0.0
    if sample_size >= population:
        return float(d)
    f1 = int(f[0]) if len(f) else 0
    rest = d - f1
    estimate = np.sqrt(population / max(sample_size, 1)) * f1 + rest
    return _clamp(estimate, d, population)


def chao_estimate(sample_values, sample_size, population):
    d, f = frequency_profile(sample_values)
    if d == 0:
        return 0.0
    if sample_size >= population:
        return float(d)
    f1 = int(f[0]) if len(f) >= 1 else 0
    f2 = int(f[1]) if len(f) >= 2 else 0
    if f2 == 0:
        return gee_estimate(sample_values, sample_size, population)
    estimate = d + (f1 * f1) / (2.0 * f2)
    return _clamp(estimate, d, population)


def jackknife_estimate(sample_values, sample_size, population):
    d, f = frequency_profile(sample_values)
    if d == 0:
        return 0.0
    if sample_size >= population:
        return float(d)
    f1 = int(f[0]) if len(f) else 0
    q = sample_size / population
    denominator = 1.0 - (1.0 - q) * f1 / max(sample_size, 1)
    if denominator <= 0:
        return _clamp(float(population), d, population)
    return _clamp(d / denominator, d, population)


def hybrid_estimate(sample_values, sample_size, population):
    d, f = frequency_profile(sample_values)
    if d == 0:
        return 0.0
    if sample_size >= population:
        return float(d)
    f1 = int(f[0]) if len(f) >= 1 else 0
    f2 = int(f[1]) if len(f) >= 2 else 0
    gee = gee_estimate(sample_values, sample_size, population)
    if f1 == d and f2 == 0:
        linear = d * population / max(sample_size, 1)
        return _clamp(max(gee, linear), d, population)
    if f2 > 0:
        chao = d + (f1 * f1) / (2.0 * f2)
        return _clamp(max(gee, chao), d, population)
    return _clamp(gee, d, population)


REFERENCE_ESTIMATORS = {
    "gee": gee_estimate,
    "chao": chao_estimate,
    "jackknife": jackknife_estimate,
    "hybrid": hybrid_estimate,
}
