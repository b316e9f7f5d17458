"""``run.py --compare PARENT CHANGE``: the table a perf PR pastes.

Each side is one ledger report, or a directory of them (the ten
alternating pairs of the README procedure: report *i* of one side is
paired with report *i* of the other).  One row per (workload,
end-to-end metric) with both medians, their quartiles, the bound from
``BENCHMARK.json`` (embedded in the parent report) and a verdict:

* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` — run-to-run spread exceeds the bound and the two
  sides' runs overlap, so the bound cannot be checked either way;
* ``better`` — at least ten pairs were run, the medians differ by more
  than the parent's own quartile distance and the change wins at least
  nine tenths of the pairs (ties count for neither);
* ``within`` — none of the above.

Every ratio is printed with its base (the parent's median).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["verdict", "compare_reports"]

#: Fewer pairs than this cannot show a gain: three reps of one commit
#: against itself win 3 of 3 by chance one time in four.
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The verdict and how much worse the change's median is, as a share
    of the parent's median (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    scale = abs(base) or 1.0
    worse_by = sign * (statistics.median(change) - base) / scale
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = max(p3 - p1, c3 - c1) / scale
    # Oriented so that smaller is better on both sides.
    p, c = [sign * v for v in parent], [sign * v for v in change]
    overlap = not (max(c) < min(p) or min(c) > max(p))
    if spread > bound and overlap:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    wins = sum(cv < pv for pv, cv in zip(p, c))
    losses = sum(cv > pv for pv, cv in zip(p, c))
    if (
        worse_by < 0
        and min(len(p), len(c)) >= MIN_PAIRS
        and abs(worse_by) * scale > p3 - p1
        and wins + losses > 0
        and wins >= 0.9 * (wins + losses)
    ):
        return "better", worse_by
    return "within", worse_by


def load_side(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = [json.loads(f.read_text()) for f in files]
    if not reports:
        raise SystemExit(f"no report found at {path}")
    return reports


def pooled(reports: list[dict], workload: str, metric: str) -> list[float]:
    values: list[float] = []
    for report in reports:
        cell = report["end_to_end"].get(workload, {}).get("metrics", {}).get(metric)
        if cell:
            values += cell["per_rep"]
    return values


def compare_reports(parent_path: Path, change_path: Path) -> int:
    parent, change = load_side(parent_path), load_side(change_path)
    bounds = parent[0]["bounds"]
    units = parent[0]["units"]
    print(
        f"{'workload':<15} {'metric':<17} {'unit':<9} {'parent median [q1..q3]':<34}"
        f" {'change median [q1..q3]':<34} {'change vs parent':<26} {'bound':<6} verdict"
    )
    worse = 0
    for workload in parent[0]["end_to_end"]:
        for metric, spec in bounds.items():
            p = pooled(parent, workload, metric)
            c = pooled(change, workload, metric)
            if not p or not c:
                print(f"{workload:<15} {metric:<17} missing on one side")
                worse += 1
                continue
            word, _ = verdict(p, c, spec["better"], spec["bound"])
            worse += word == "worse"
            base, moved = statistics.median(p), statistics.median(c)
            cells = [
                "%.5g [%.5g..%.5g] n=%d" % (median, *quartiles(v), len(v))
                for median, v in ((base, p), (moved, c))
            ]
            # The raw signed change of the value, not oriented by ``better``.
            delta = "%+.2f%% of %.5g" % (100 * (moved - base) / (abs(base) or 1.0), base)
            print(
                f"{workload:<15} {metric:<17} {units[metric]:<9} {cells[0]:<34}"
                f" {cells[1]:<34} {delta:<26} {spec['bound']:<6} {word}"
            )
    print(f"{worse} row(s) worse")
    return 1 if worse else 0
