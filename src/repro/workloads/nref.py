"""Synthetic NREF ``neighboring_seq`` relation.

Stands in for the PIR-NREF protein database's largest relation (78M
rows, 10 columns used in the paper).  The column profile mirrors a
sequence-neighbour table: two near-key sequence identifiers, a skewed
organism column, a clustered assignment key, bucketed match statistics
and small categorical metadata.
"""

from __future__ import annotations

import numpy as np

from repro.engine.table import Table
from repro.workloads.zipf import zipf_indices

#: The 10 columns the NREF experiments group on.
NREF_COLUMNS = (
    "seq_id",
    "neighbor_id",
    "organism",
    "db_source",
    "cluster_id",
    "match_len",
    "score_bucket",
    "method",
    "release",
    "reviewed",
)

_SOURCES = np.array(["PIR", "SWISS", "TREMBL", "GENPEPT", "PDB"], dtype="S")
_METHODS = np.array(["blast", "fasta", "hmm"], dtype="S")


def make_neighboring_seq(
    n_rows: int, z: float = 0.6, seed: int = 11, name: str = "neighboring_seq"
) -> Table:
    """Generate a neighboring_seq-like relation.

    Args:
        n_rows: number of rows.
        z: Zipf skew (real biological data is skewed, so the default is
            mildly Zipfian).
        seed: RNG seed.
        name: relation name.
    """
    rng = np.random.default_rng(seed)
    n = int(n_rows)

    def draw(domain: int, skew: float | None = None) -> np.ndarray:
        exponent = z if skew is None else skew
        return zipf_indices(n, max(int(domain), 1), exponent, rng)

    seq_id = draw(max(n // 3, 1))
    neighbor_id = draw(max(n // 3, 1))
    organism = draw(1_000)
    cluster_id = seq_id % max(n // 50, 1)  # clusters follow sequences
    match_len = draw(500, 0.3) + 20
    score_bucket = match_len % 100  # score correlates with match length

    return Table(
        name,
        {
            "seq_id": seq_id + 1,
            "neighbor_id": neighbor_id + 1,
            "organism": organism + 1,
            "db_source": _SOURCES[draw(len(_SOURCES), 0.8)],
            "cluster_id": cluster_id + 1,
            "match_len": match_len,
            "score_bucket": score_bucket,
            "method": _METHODS[draw(len(_METHODS), 0.5)],
            "release": draw(20, 0.2) + 1,
            "reviewed": draw(2, 0.0),
        },
    )
