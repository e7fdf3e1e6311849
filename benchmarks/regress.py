"""bench-compare: noise-aware benchmark regression detection.

The repository commits one baseline JSON per benchmark suite at the
repo root (``BENCH_kernels.json``, ``BENCH_physical.json``,
``BENCH_analysis.json``, ``BENCH_obs.json``).  This tool re-runs the
suites (or takes pre-built result files) and diffs current numbers
against the committed baselines:

* **timing leaves** (keys ending in ``_seconds``) compare by ratio
  with two relative thresholds — ``--warn`` (advisory drift, default
  1.35x) and ``--fail`` (hard regression, default 1.8x) — so an
  injected 2x slowdown lands above the fail line while ordinary
  machine-to-machine noise does not.  Timings where *both* sides sit
  under the noise floor (default 20 ms) are skipped: a 3 ms kernel
  doubling is scheduler jitter, not a regression.  Improvements
  (current faster than baseline) never fire.
* **boolean leaves** (``results_match``, ``verifier_clean``, ...) are
  correctness flags: a ``true`` -> ``false`` transition is always a
  hard failure, no threshold.
* **structure**: leaves present in the baseline but missing from the
  current payload are advisory (suites grow fields over time; losing
  one deserves a look, not a red build).

Counter-style leaves (rows, ops, query counts) are ignored — they are
workload shape, not performance, and the correctness flags already
pin them.

Usage::

    python benchmarks/regress.py --run --smoke          # re-run, compare
    python benchmarks/regress.py --suites obs --run
    python benchmarks/regress.py --baseline BENCH_obs.json \
        --current /tmp/BENCH_obs.json                   # compare files
    python benchmarks/regress.py --run --update         # refresh baselines

Exit status follows the repo-wide analysis contract: 0 = clean,
1 = advisory findings only (warn-level drift or structure changes),
2 = hard regression (fail-level timing or correctness flag) or usage
error.  ``--advisory`` caps the exit at 0 for scheduled CI jobs that
should report, not block.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: suite name -> (runner script, committed baseline file name).
SUITES: dict[str, tuple[str, str]] = {
    "kernels": ("bench_kernels.py", "BENCH_kernels.json"),
    "physical": ("bench_physical.py", "BENCH_physical.json"),
    "analysis": ("bench_analysis.py", "BENCH_analysis.json"),
    "obs": ("bench_obs.py", "BENCH_obs.json"),
    "morsel": ("bench_morsel.py", "BENCH_morsel.json"),
    "cache": ("bench_cache.py", "BENCH_cache.json"),
}

#: Relative timing tolerance that flags advisory drift / hard failure.
DEFAULT_WARN_RATIO = 1.35
DEFAULT_FAIL_RATIO = 1.8
#: Timings where both sides are under this are too small to compare.
DEFAULT_NOISE_FLOOR_SECONDS = 0.020

#: Baseline keys that describe the run, not its performance.
_CONTEXT_KEYS = {"smoke", "rows", "repeats", "parallelism", "max_overhead"}


@dataclass(frozen=True)
class Finding:
    """One baseline-vs-current discrepancy."""

    suite: str
    path: str
    kind: str  # "timing" | "flag" | "structure"
    level: str  # "warn" | "fail"
    baseline: object
    current: object
    ratio: float | None = None

    def render(self) -> str:
        tag = "FAIL" if self.level == "fail" else "warn"
        if self.kind == "timing":
            return (
                f"[{tag}] {self.suite}:{self.path}  "
                f"{self.baseline:.4f}s -> {self.current:.4f}s "
                f"({self.ratio:.2f}x)"
            )
        if self.kind == "flag":
            return (
                f"[{tag}] {self.suite}:{self.path}  "
                f"{self.baseline} -> {self.current}"
            )
        return f"[{tag}] {self.suite}:{self.path}  missing from current run"

    def as_dict(self) -> dict[str, object]:
        return {
            "suite": self.suite,
            "path": self.path,
            "kind": self.kind,
            "level": self.level,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
        }


def _leaves(payload: object, prefix: str = "") -> dict[str, object]:
    """Flatten nested dicts to dotted-path -> scalar leaves."""
    flat: dict[str, object] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            flat.update(_leaves(value, path))
    else:
        flat[prefix] = payload
    return flat


def compare_payloads(
    suite: str,
    baseline: dict[str, object],
    current: dict[str, object],
    warn_ratio: float = DEFAULT_WARN_RATIO,
    fail_ratio: float = DEFAULT_FAIL_RATIO,
    noise_floor_seconds: float = DEFAULT_NOISE_FLOOR_SECONDS,
) -> list[Finding]:
    """Diff two suite payloads; pure function, fully deterministic."""
    findings: list[Finding] = []
    base_leaves = _leaves(baseline)
    cur_leaves = _leaves(current)
    for path, base_value in sorted(base_leaves.items()):
        leaf = path.rsplit(".", 1)[-1]
        if leaf in _CONTEXT_KEYS:
            continue
        if path not in cur_leaves:
            findings.append(
                Finding(suite, path, "structure", "warn", base_value, None)
            )
            continue
        cur_value = cur_leaves[path]
        if isinstance(base_value, bool):
            if base_value and cur_value is not True:
                findings.append(
                    Finding(suite, path, "flag", "fail", base_value, cur_value)
                )
            continue
        if (
            leaf.endswith("_seconds")
            and isinstance(base_value, (int, float))
            and isinstance(cur_value, (int, float))
        ):
            if (
                base_value < noise_floor_seconds
                and cur_value < noise_floor_seconds
            ):
                continue
            ratio = (
                float(cur_value) / float(base_value)
                if base_value > 0
                else float("inf")
            )
            if ratio >= fail_ratio:
                findings.append(
                    Finding(
                        suite, path, "timing", "fail",
                        base_value, cur_value, ratio,
                    )
                )
            elif ratio >= warn_ratio:
                findings.append(
                    Finding(
                        suite, path, "timing", "warn",
                        base_value, cur_value, ratio,
                    )
                )
    return findings


def run_suite(suite: str, out: Path, smoke: bool) -> int:
    """Invoke one benchmark script, writing its payload to ``out``."""
    script, _ = SUITES[suite]
    command = [sys.executable, str(BENCH_DIR / script), "--out", str(out)]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=REPO_ROOT)
    return completed.returncode


def _load(path: Path) -> dict[str, object] | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as error:
        print(f"error: {path} is not valid JSON: {error}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suites",
        help="comma-separated suites (default: all of "
        f"{','.join(SUITES)})",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="re-run the suites to produce current payloads",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="pass --smoke to the suite runners (reduced scale)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        help="explicit baseline JSON (single-suite file-compare mode)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        help="explicit current JSON (single-suite file-compare mode)",
    )
    parser.add_argument(
        "--warn", type=float, default=DEFAULT_WARN_RATIO,
        help=f"advisory timing ratio (default {DEFAULT_WARN_RATIO})",
    )
    parser.add_argument(
        "--fail", type=float, default=DEFAULT_FAIL_RATIO,
        help=f"hard-failure timing ratio (default {DEFAULT_FAIL_RATIO})",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=DEFAULT_NOISE_FLOOR_SECONDS,
        help="skip timings where both sides are under this many seconds "
        f"(default {DEFAULT_NOISE_FLOOR_SECONDS})",
    )
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report findings but always exit 0 (scheduled-CI mode)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="with --run: copy current payloads over the baselines",
    )
    parser.add_argument(
        "--report", type=Path, help="also write findings JSON here"
    )
    args = parser.parse_args(argv)

    if args.warn <= 1.0 or args.fail <= 1.0 or args.fail < args.warn:
        print(
            "error: thresholds must satisfy 1.0 < --warn <= --fail",
            file=sys.stderr,
        )
        return 2
    if (args.baseline is None) != (args.current is None):
        print(
            "error: --baseline and --current go together", file=sys.stderr
        )
        return 2

    findings: list[Finding] = []
    compared = 0

    if args.baseline is not None:
        # Single-file mode: compare two payloads directly.
        baseline = _load(args.baseline)
        current = _load(args.current)
        if baseline is None or current is None:
            print("error: missing or invalid payload file", file=sys.stderr)
            return 2
        findings = compare_payloads(
            args.baseline.stem, baseline, current,
            args.warn, args.fail, args.noise_floor,
        )
        compared = 1
    else:
        names = (
            [s.strip() for s in args.suites.split(",") if s.strip()]
            if args.suites
            else list(SUITES)
        )
        unknown = [name for name in names if name not in SUITES]
        if unknown:
            print(
                f"error: unknown suite(s) {', '.join(unknown)}; "
                f"known: {', '.join(SUITES)}",
                file=sys.stderr,
            )
            return 2
        with tempfile.TemporaryDirectory(prefix="regress-") as tmp:
            for name in names:
                _, baseline_name = SUITES[name]
                baseline_path = REPO_ROOT / baseline_name
                current_path = Path(tmp) / baseline_name
                if args.run:
                    code = run_suite(name, current_path, args.smoke)
                    if code != 0:
                        print(
                            f"error: suite {name} exited {code}",
                            file=sys.stderr,
                        )
                        return 2
                else:
                    current_path = baseline_path
                baseline = _load(baseline_path)
                current = _load(current_path)
                if baseline is None:
                    print(f"note: no baseline {baseline_name}; skipping diff")
                    if args.run and args.update and current is not None:
                        shutil.copy(current_path, baseline_path)
                        print(f"seeded baseline {baseline_name}")
                    continue
                if current is None:
                    print(
                        f"error: no current payload for {name}",
                        file=sys.stderr,
                    )
                    return 2
                if bool(baseline.get("smoke")) != bool(current.get("smoke")):
                    print(
                        f"note: {name}: baseline smoke="
                        f"{baseline.get('smoke')} vs current smoke="
                        f"{current.get('smoke')}; timings skipped"
                    )
                    findings.extend(
                        f
                        for f in compare_payloads(
                            name, baseline, current,
                            args.warn, args.fail, args.noise_floor,
                        )
                        if f.kind != "timing"
                    )
                else:
                    findings.extend(
                        compare_payloads(
                            name, baseline, current,
                            args.warn, args.fail, args.noise_floor,
                        )
                    )
                compared += 1
                if args.run and args.update:
                    shutil.copy(current_path, baseline_path)
                    print(f"updated baseline {baseline_name}")

    for finding in findings:
        print(finding.render())
    hard = sum(1 for f in findings if f.level == "fail")
    soft = len(findings) - hard
    print(
        f"bench-compare: {compared} suite(s), "
        f"{hard} regression(s), {soft} advisory"
    )
    if args.report:
        args.report.write_text(
            json.dumps(
                {
                    "suites": compared,
                    "findings": [f.as_dict() for f in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"wrote {args.report}")
    if args.advisory:
        return 0
    if hard:
        return 2
    return 1 if soft else 0


if __name__ == "__main__":
    raise SystemExit(main())
