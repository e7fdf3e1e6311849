"""Timing loop, sample summaries and the declared metric set.

``BENCHMARK.json`` at the repo root is the one place metric names,
units, directions and bounds are declared; this module reads it so the
runner can refuse an undeclared name and ``compare`` can apply bounds.
"""

from __future__ import annotations

import ctypes
import gc
import json
import resource
import statistics
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from repro.obs.clock import monotonic

T = TypeVar("T")

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Fewest timed repetitions of any path, however short ``--seconds`` is.
MIN_ROUNDS = 3


def load_declaration() -> dict[str, object]:
    with BENCHMARK_JSON.open(encoding="utf-8") as handle:
        return json.load(handle)


def declared_metrics(kind: str) -> dict[str, dict[str, object]]:
    """``kind`` is ``end_to_end`` or ``per_layer``; name -> declaration."""
    return {entry["name"]: entry for entry in load_declaration()[kind]}


#: The end-to-end timings report the first decile of a run's samples,
#: not the median.  Other tenants of a shared host only ever add time,
#: in bursts that can cover most of a run: the median moves once half
#: the rounds are hit, the first decile only once nine tenths are, and
#: unlike the minimum it is not one lucky round (with fewer than eleven
#: samples it lies between the two fastest).  README, "Steadiness", has
#: the measured difference.
FIRST_DECILE = ("setup_s", "batch_s", "exec_s")


def summarize(samples: list[float], first_decile: bool = False) -> dict[str, float]:
    """Reported value, median, quartiles and count of ``samples``."""
    if len(samples) == 1:
        q1 = q3 = low = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        # Inclusive: never extrapolates below the fastest round.
        low = statistics.quantiles(samples, n=10, method="inclusive")[0]
    median = statistics.median(samples)
    return {
        "value": low if first_decile else median,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: glibc ``mallopt`` parameters (malloc.h) and the values set below.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
KEEP_BYTES = (1 << 31) - 1
#: Largest M_MMAP_THRESHOLD every 64-bit glibc accepts.
MMAP_THRESHOLD_FALLBACK = 32 << 20


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory in the process.

    By default every array over 128 KiB is its own ``mmap`` and goes
    back to the kernel when freed, so each timed round faults its
    temporaries in again page by page (7–10k faults, 2–10% of a round
    here).  In a virtual machine the cost of a fault is the host's to
    decide and swings with its load, which put noise, not program
    work, into every timing.  With both thresholds raised the heap is
    reused and a warm round faults nothing.  False where the C library
    has no ``mallopt`` (the timings are then merely noisier).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    kept = mallopt(M_MMAP_THRESHOLD, KEEP_BYTES) or mallopt(
        M_MMAP_THRESHOLD, MMAP_THRESHOLD_FALLBACK
    )
    return bool(mallopt(M_TRIM_THRESHOLD, KEEP_BYTES) and kept)


def timed(fn: Callable[[], T]) -> tuple[float, T]:
    """Run ``fn`` once; return (seconds, its result)."""
    started = monotonic()
    result = fn()
    return monotonic() - started, result


def rounds(seconds: float, minimum: int = MIN_ROUNDS) -> Iterator[int]:
    """Yield round numbers for ``seconds``, at least ``minimum`` of them.

    Each round starts with the previous round's garbage collected, so
    dropped result tables never inflate the next round's timings.
    """
    deadline = monotonic() + seconds
    index = 0
    while index < minimum or monotonic() < deadline:
        gc.collect()
        yield index
        index += 1


@dataclass
class Report:
    """Everything one benchmark run reports."""

    seed: int
    trace: bool
    samples: dict[str, list[float]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        """Append one sample (timings) or the single value (counts)."""
        self.samples.setdefault(name, []).append(float(value))

    def accumulate(self, name: str, value: float) -> None:
        """Add ``value`` to a single-valued count (a session's batches)."""
        self.samples[name] = [self.samples.get(name, [0.0])[0] + value]

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def summary(self, name: str) -> dict[str, float]:
        return summarize(self.samples[name], name in FIRST_DECILE)

    def value(self, name: str) -> float:
        """What :meth:`metrics` reports for ``name``."""
        return self.summary(name)["value"]

    def metrics(self) -> dict[str, dict[str, object]]:
        """Declared metrics with unit and summary; refuses strays.

        With ``trace`` on, a per-layer metric this workload does not
        exercise is reported as 0 (the run contract wants every
        declared per-layer name on every workload); an end-to-end
        metric must have been measured.
        """
        declared = declared_metrics("per_layer" if self.trace else "end_to_end")
        stray = sorted(set(self.samples) - set(declared))
        if stray:
            raise KeyError(f"metrics not declared in BENCHMARK.json: {stray}")
        out: dict[str, dict[str, object]] = {}
        for name, entry in declared.items():
            if name in self.samples:
                summary = self.summary(name)
            elif self.trace:
                summary = summarize([0.0]) | {"n": 0}
            else:
                raise KeyError(f"end-to-end metric {name!r} was not measured")
            out[name] = {
                **summary,
                "unit": entry["unit"],
                "samples": self.samples.get(name, []),
            }
        return out
