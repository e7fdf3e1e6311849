"""Zipfian value sampling for skewed columns (Section 6.8).

The paper regenerates TPC-H with Zipf factors z in {0, 0.5, ..., 3}.
``zipf_indices`` draws value *indices* from a truncated Zipf
distribution over ``n_values`` ranks: P(rank k) proportional to 1/k^z,
with z = 0 degenerating to uniform.  ``decimal_bytes`` is the other
value helper the generators share: numbered strings as bytes.
"""

from __future__ import annotations

import numpy as np


def zipf_weights(n_values: int, z: float) -> np.ndarray:
    """Normalized rank probabilities of a truncated Zipf(z) law."""
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    if z < 0:
        raise ValueError("the Zipf exponent must be non-negative")
    ranks = np.arange(1, n_values + 1, dtype=np.float64)
    weights = ranks**-z
    return weights / weights.sum()


def zipf_indices(
    n: int, n_values: int, z: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` value indices in [0, n_values) with Zipf(z) skew.

    Args:
        n: number of samples.
        n_values: size of the value domain.
        z: skew exponent; 0 is uniform, larger is more skewed.
        rng: numpy random generator.
    """
    if z == 0:
        return rng.integers(0, n_values, size=n)
    cdf = np.cumsum(zipf_weights(n_values, z))
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").clip(0, n_values - 1)


def effective_distinct(n: int, n_values: int, z: float) -> float:
    """Expected number of distinct values in ``n`` Zipf(z) draws.

    Used by tests: higher skew concentrates mass on few ranks, so the
    effective distinct count drops — the mechanism behind Figure 13's
    rising speedup ("as a column becomes more skewed, it becomes more
    sparse").
    """
    weights = zipf_weights(n_values, z)
    return float(np.sum(1.0 - (1.0 - weights) ** n))


def decimal_bytes(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as ASCII decimal ``S`` values, at the width
    of the largest: the generators' numbered strings, one byte a digit."""
    digits = len(str(int(values.max(initial=0))))
    return values.astype(f"S{digits}")
