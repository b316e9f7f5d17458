"""Forensic analysis of audit record streams (``python -m repro inspect``).

Consumes the JSONL streams :mod:`repro.obs.audit` emits and answers the
two questions a defence post-mortem asks:

* **Did the defences catch the attackers?**  Every ``decision`` /
  ``consensus`` record carrying a hard ``rejected`` mask plus the device
  ``members`` it applies to is scored against the ``ground_truth``
  records for the same cell and step — per-cell true/false positive
  counts, precision, recall and false-positive rate, plus a per-device
  suspicion timeline showing *when* each device was flagged.
* **Did anything change between two runs?**  :func:`diff_audit` compares
  two record streams cell by cell — detection-quality deltas and metric
  deltas — and reports the maximum absolute delta so CI can gate on it
  (``repro inspect A --diff B --check``).

Scoring convention: devices the ground truth marks *crash-silent* are
excluded from the confusion counts — a silent device contributes nothing
to aggregate, so rejecting it is neither a catch nor a false alarm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.utils.tables import format_float, format_table

__all__ = [
    "DetectionStats",
    "DeviceSuspicion",
    "CellAudit",
    "AuditReport",
    "build_audit_report",
    "render_audit_report",
    "CellDelta",
    "AuditDiff",
    "diff_audit",
    "render_diff",
]


# ----------------------------------------------------------------------
# detection statistics
# ----------------------------------------------------------------------
@dataclass
class DetectionStats:
    """Confusion counts of rejected-vs-Byzantine over scored records."""

    tp: int = 0  # Byzantine device rejected
    fp: int = 0  # honest device rejected
    fn: int = 0  # Byzantine device kept
    tn: int = 0  # honest device kept

    @property
    def scored(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        flagged = self.tp + self.fp
        return self.tp / flagged if flagged else 1.0

    @property
    def recall(self) -> float:
        byzantine = self.tp + self.fn
        return self.tp / byzantine if byzantine else 1.0

    @property
    def fpr(self) -> float:
        honest = self.fp + self.tn
        return self.fp / honest if honest else 0.0

    def add(self, *, device_byzantine: bool, rejected: bool) -> None:
        if device_byzantine:
            if rejected:
                self.tp += 1
            else:
                self.fn += 1
        elif rejected:
            self.fp += 1
        else:
            self.tn += 1

    def as_dict(self) -> dict[str, float]:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "precision": self.precision,
            "recall": self.recall,
            "fpr": self.fpr,
        }


@dataclass
class DeviceSuspicion:
    """How often (and when) one device was flagged within a cell."""

    device: int
    byzantine: bool = False
    silent: bool = False
    seen: int = 0
    flagged: int = 0
    steps_seen: set[int] = field(default_factory=set)
    steps_flagged: set[int] = field(default_factory=set)

    @property
    def rate(self) -> float:
        return self.flagged / self.seen if self.seen else 0.0

    def timeline(self, steps: Sequence[int]) -> str:
        """``#`` flagged, ``.`` seen clean, space unseen — one per step."""
        marks = []
        for step in steps:
            if step in self.steps_flagged:
                marks.append("#")
            elif step in self.steps_seen:
                marks.append(".")
            else:
                marks.append(" ")
        return "".join(marks)


@dataclass
class CellAudit:
    """Everything the audit stream says about one grid cell."""

    key: str
    cell: dict[str, object] | None
    stats: DetectionStats = field(default_factory=DetectionStats)
    devices: dict[int, DeviceSuspicion] = field(default_factory=dict)
    truth_byzantine: set[int] = field(default_factory=set)
    truth_silent: set[int] = field(default_factory=set)
    metrics: dict[str, list[float]] = field(default_factory=dict)
    n_scored_records: int = 0
    n_unmatched_records: int = 0

    @property
    def label(self) -> str:
        if not self.cell:
            return "(run)"
        parts: list[str] = []
        for name in ("defence", "attack", "fraction", "consensus"):
            if name in self.cell and self.cell[name] is not None:
                parts.append(str(self.cell[name]))
        for name in sorted(set(self.cell) - {"defence", "attack", "fraction", "consensus"}):
            if self.cell[name] is not None:
                parts.append(f"{name}={self.cell[name]}")
        return "/".join(parts) if parts else "(run)"

    def metric_means(self) -> dict[str, float]:
        return {
            name: sum(values) / len(values)
            for name, values in sorted(self.metrics.items())
            if values
        }

    def device_for(self, device: int) -> DeviceSuspicion:
        if device not in self.devices:
            self.devices[device] = DeviceSuspicion(device=device)
        return self.devices[device]


@dataclass
class AuditReport:
    """The full forensic digest of one audit record stream."""

    cells: dict[str, CellAudit]
    n_records: int = 0

    def sorted_cells(self) -> list[CellAudit]:
        return [self.cells[k] for k in sorted(self.cells)]


# ----------------------------------------------------------------------
# report construction
# ----------------------------------------------------------------------
def _cell_key(record: Mapping[str, object]) -> tuple[str, dict[str, object] | None]:
    cell = record.get("cell")
    if isinstance(cell, dict):
        return json.dumps(cell, sort_keys=True), cell
    return "(run)", None


def _as_int_list(value: object) -> list[int] | None:
    if not isinstance(value, list):
        return None
    out: list[int] = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            return None
        out.append(v)
    return out


def _as_bool_list(value: object) -> list[bool] | None:
    if not isinstance(value, list) or not all(isinstance(v, bool) for v in value):
        return None
    return list(value)


def build_audit_report(records: Iterable[Mapping[str, object]]) -> AuditReport:
    """Digest validated audit records into per-cell detection statistics.

    Only records carrying both a ``rejected`` mask and the ``members``
    it indexes are scored; soft-evidence records (GeoMed weights, plain
    averaging) inform the timeline display but not the confusion counts.
    Truth is matched by ``(cell, step)`` first, falling back to the
    union of the cell's ground truth over all steps.
    """
    cells: dict[str, CellAudit] = {}
    # (cell key, step) -> (byzantine ids, silent ids)
    truth: dict[tuple[str, int], tuple[set[int], set[int]]] = {}
    stream = list(records)

    def cell_for(record: Mapping[str, object]) -> CellAudit:
        key, cell = _cell_key(record)
        if key not in cells:
            cells[key] = CellAudit(key=key, cell=cell)
        return cells[key]

    # Pass 1: ground truth (so scoring never depends on record order).
    for record in stream:
        if record.get("kind") != "ground_truth":
            continue
        audit_cell = cell_for(record)
        step = record.get("step")
        byz = _as_int_list(record.get("byzantine")) or []
        silent = _as_int_list(record.get("silent")) or []
        audit_cell.truth_byzantine.update(byz)
        audit_cell.truth_silent.update(silent)
        if isinstance(step, int):
            truth[(audit_cell.key, step)] = (set(byz), set(silent))

    # Pass 2: decisions, consensus instances and metrics.
    report = AuditReport(cells=cells)
    for record in stream:
        report.n_records += 1
        kind = record.get("kind")
        if kind == "ground_truth":
            continue
        audit_cell = cell_for(record)
        if kind == "metric":
            name = record.get("name")
            value = record.get("value")
            if isinstance(name, str) and isinstance(value, (int, float)):
                audit_cell.metrics.setdefault(name, []).append(float(value))
            continue
        if kind not in ("decision", "consensus"):
            continue
        rejected = _as_bool_list(record.get("rejected"))
        members = _as_int_list(record.get("members"))
        if rejected is None or members is None or len(rejected) != len(members):
            audit_cell.n_unmatched_records += 1
            continue
        step = record.get("step")
        step_int = step if isinstance(step, int) else 0
        byz, silent = truth.get(
            (audit_cell.key, step_int),
            (audit_cell.truth_byzantine, audit_cell.truth_silent),
        )
        audit_cell.n_scored_records += 1
        for device, flagged in zip(members, rejected):
            suspicion = audit_cell.device_for(device)
            suspicion.byzantine = device in audit_cell.truth_byzantine
            suspicion.silent = device in audit_cell.truth_silent
            suspicion.seen += 1
            suspicion.steps_seen.add(step_int)
            if flagged:
                suspicion.flagged += 1
                suspicion.steps_flagged.add(step_int)
            if device in silent:
                continue  # silent devices are neither catches nor alarms
            audit_cell.stats.add(
                device_byzantine=device in byz, rejected=flagged
            )
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _truth_label(suspicion: DeviceSuspicion) -> str:
    if suspicion.byzantine:
        return "byz"
    if suspicion.silent:
        return "silent"
    return "honest"


def render_audit_report(report: AuditReport, timelines: bool = True) -> str:
    """Render detection tables plus optional per-device timelines."""
    sections: list[str] = []
    scored = [c for c in report.sorted_cells() if c.stats.scored]
    if scored:
        rows = [
            [
                c.label,
                c.n_scored_records,
                ",".join(map(str, sorted(c.truth_byzantine))) or "-",
                c.stats.tp,
                c.stats.fp,
                c.stats.fn,
                c.stats.tn,
                format_float(c.stats.precision),
                format_float(c.stats.recall),
                format_float(c.stats.fpr),
            ]
            for c in scored
        ]
        sections.append(
            format_table(
                [
                    "cell",
                    "records",
                    "truth byz",
                    "tp",
                    "fp",
                    "fn",
                    "tn",
                    "precision",
                    "recall",
                    "fpr",
                ],
                rows,
                title="Detection vs injected ground truth",
            )
        )
    else:
        sections.append(
            "Detection vs injected ground truth\n"
            "(no records carry a rejected mask with members — nothing to score)"
        )

    metric_rows = [
        [c.label, name, format_float(mean), len(c.metrics[name])]
        for c in report.sorted_cells()
        for name, mean in c.metric_means().items()
    ]
    if metric_rows:
        sections.append(
            format_table(
                ["cell", "metric", "mean", "n"],
                metric_rows,
                title="Recorded metrics",
            )
        )

    if timelines:
        for c in scored:
            steps = sorted({s for d in c.devices.values() for s in d.steps_seen})
            rows = [
                [
                    d.device,
                    _truth_label(d),
                    f"{d.flagged}/{d.seen}",
                    d.timeline(steps),
                ]
                for d in sorted(c.devices.values(), key=lambda d: d.device)
            ]
            sections.append(
                format_table(
                    ["device", "truth", "flagged", "timeline"],
                    rows,
                    title=f"Suspicion timeline — {c.label}",
                )
            )

    unmatched = sum(c.n_unmatched_records for c in report.cells.values())
    footer = f"{report.n_records} records"
    if unmatched:
        footer += f" ({unmatched} decision/consensus records without a scoreable mask)"
    sections.append(footer)
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# run-to-run diff
# ----------------------------------------------------------------------
@dataclass
class CellDelta:
    """Per-cell deltas between two audit reports (B minus A)."""

    label: str
    detection: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def max_abs(self) -> float:
        deltas = list(self.detection.values()) + list(self.metrics.values())
        return max((abs(d) for d in deltas), default=0.0)


@dataclass
class AuditDiff:
    """Cross-run comparison of two audit record streams."""

    cells: list[CellDelta]
    only_a: list[str] = field(default_factory=list)
    only_b: list[str] = field(default_factory=list)

    @property
    def max_abs_delta(self) -> float:
        return max((c.max_abs for c in self.cells), default=0.0)

    def exceeds(self, tol: float) -> bool:
        """Whether the diff is a regression at tolerance ``tol``."""
        return bool(self.only_a or self.only_b) or self.max_abs_delta > tol


def diff_audit(
    records_a: Iterable[Mapping[str, object]],
    records_b: Iterable[Mapping[str, object]],
) -> AuditDiff:
    """Compare two record streams cell by cell (deltas are B minus A)."""
    report_a = build_audit_report(records_a)
    report_b = build_audit_report(records_b)
    keys_a, keys_b = set(report_a.cells), set(report_b.cells)
    deltas: list[CellDelta] = []
    for key in sorted(keys_a & keys_b):
        cell_a, cell_b = report_a.cells[key], report_b.cells[key]
        delta = CellDelta(label=cell_b.label)
        if cell_a.stats.scored and cell_b.stats.scored:
            dict_a, dict_b = cell_a.stats.as_dict(), cell_b.stats.as_dict()
            for name in ("precision", "recall", "fpr"):
                delta.detection[name] = dict_b[name] - dict_a[name]
        means_a, means_b = cell_a.metric_means(), cell_b.metric_means()
        for name in sorted(set(means_a) & set(means_b)):
            delta.metrics[name] = means_b[name] - means_a[name]
        deltas.append(delta)
    return AuditDiff(
        cells=deltas,
        only_a=[report_a.cells[k].label for k in sorted(keys_a - keys_b)],
        only_b=[report_b.cells[k].label for k in sorted(keys_b - keys_a)],
    )


def render_diff(diff: AuditDiff, tol: float = 1e-9) -> str:
    """Render the per-cell deltas plus the pass/fail verdict line."""
    sections: list[str] = []
    rows = [
        [
            c.label,
            *(format_float(c.detection.get(k, 0.0), 6) for k in ("precision", "recall", "fpr")),
            "; ".join(
                f"{name}{d:+.6f}" for name, d in sorted(c.metrics.items())
            )
            or "-",
        ]
        for c in diff.cells
    ]
    if rows:
        sections.append(
            format_table(
                ["cell", "d precision", "d recall", "d fpr", "metric deltas"],
                rows,
                title="Audit diff (B - A)",
            )
        )
    else:
        sections.append("Audit diff (B - A)\n(no cells in common)")
    if diff.only_a:
        sections.append("Only in A: " + "; ".join(diff.only_a))
    if diff.only_b:
        sections.append("Only in B: " + "; ".join(diff.only_b))
    verdict = (
        f"max |delta| = {diff.max_abs_delta:.3e} "
        f"({'REGRESSION' if diff.exceeds(tol) else 'OK'} at tol {tol:g})"
    )
    sections.append(verdict)
    return "\n\n".join(sections)
