"""Run-report rendering: Table-V-style wait/compute/comm breakdowns.

The paper's Table V decomposes each configuration's round time into
waiting, computation and communication; the event-driven runner emits
exactly those span categories, so any trace can be folded back into the
same decomposition (``python -m repro inspect <run-dir>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.trace import TraceEvent
from repro.utils.tables import format_table

__all__ = ["PhaseBreakdown", "RunReport", "build_report", "render_report"]

#: Span categories folded into the Table-V decomposition.
BREAKDOWN_CATEGORIES: tuple[str, ...] = ("wait", "compute", "comm")


@dataclass
class PhaseBreakdown:
    """Accumulated span time per phase category (sim-time seconds)."""

    wait: float = 0.0
    compute: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.wait + self.compute + self.comm

    def add(self, cat: str, duration: float) -> None:
        setattr(self, cat, getattr(self, cat) + duration)

    def share(self, cat: str) -> float:
        """Phase share of the total (0 when nothing was recorded)."""
        total = self.total
        return getattr(self, cat) / total if total > 0 else 0.0


@dataclass
class RunReport:
    """Everything :func:`render_report` prints, in structured form."""

    by_round: dict[int, PhaseBreakdown] = field(default_factory=dict)
    overall: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    fault_events: dict[str, int] = field(default_factory=dict)
    comm_by_kind: dict[str, tuple[int, float, float]] = field(default_factory=dict)
    n_events: int = 0


def _as_dict(event: "dict[str, object] | TraceEvent") -> dict[str, object]:
    return event.as_dict() if isinstance(event, TraceEvent) else event


def _round_of(event: dict[str, object]) -> int:
    args = event.get("args")
    if isinstance(args, dict):
        value = args.get("round")
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return -1  # events outside any round


def build_report(
    events: "Iterable[dict[str, object] | TraceEvent]",
) -> RunReport:
    """Fold a validated event stream into a :class:`RunReport`."""
    report = RunReport()
    for raw in events:
        event = _as_dict(raw)
        report.n_events += 1
        ph = event.get("ph")
        cat = event.get("cat")
        if ph == "X" and cat in BREAKDOWN_CATEGORIES:
            assert isinstance(cat, str)
            dur = event.get("dur", 0.0)
            assert isinstance(dur, (int, float))
            duration = float(dur)
            round_index = _round_of(event)
            report.by_round.setdefault(round_index, PhaseBreakdown()).add(
                cat, duration
            )
            report.overall.add(cat, duration)
            if cat == "comm":
                name = str(event.get("name", ""))
                count, total, peak = report.comm_by_kind.get(name, (0, 0.0, 0.0))
                report.comm_by_kind[name] = (
                    count + 1,
                    total + duration,
                    max(peak, duration),
                )
        elif ph == "i" and cat == "fault":
            name = str(event.get("name", ""))
            report.fault_events[name] = report.fault_events.get(name, 0) + 1
    return report


def _breakdown_row(label: str, b: PhaseBreakdown) -> list[str]:
    return [
        label,
        f"{b.wait:.3f}",
        f"{b.compute:.3f}",
        f"{b.comm:.3f}",
        f"{b.total:.3f}",
        f"{100.0 * b.share('wait'):.1f}%",
        f"{100.0 * b.share('compute'):.1f}%",
        f"{100.0 * b.share('comm'):.1f}%",
    ]


def render_report(
    events: "Iterable[dict[str, object] | TraceEvent]",
) -> str:
    """Render the wait/compute/comm decomposition of a traced run."""
    report = build_report(events)
    sections: list[str] = []

    if not report.by_round:
        # Empty, span-free or metrics-only trace: there is no breakdown
        # to tabulate.  Degrade to an explicit placeholder instead of an
        # all-zero table that reads like a measured result.
        detail = (
            "empty trace"
            if report.n_events == 0
            else f"{report.n_events} events, none of them breakdown spans"
        )
        sections.append(
            format_table(
                ["round", "wait", "compute", "comm"],
                [[f"no spans recorded ({detail})", "-", "-", "-"]],
                title=(
                    "Wait / computation / communication breakdown "
                    "(sim-time seconds)"
                ),
            )
        )
    else:
        rounds = sorted(r for r in report.by_round if r >= 0)
        rows = [_breakdown_row(str(r), report.by_round[r]) for r in rounds]
        unscoped = report.by_round.get(-1)
        if unscoped is not None and unscoped.total > 0:
            rows.append(_breakdown_row("(no round)", unscoped))
        rows.append(_breakdown_row("total", report.overall))
        sections.append(
            format_table(
                ["round", "wait", "compute", "comm", "total",
                 "wait%", "compute%", "comm%"],
                rows,
                title=(
                    "Wait / computation / communication breakdown "
                    "(sim-time seconds)"
                ),
            )
        )

    if report.comm_by_kind:
        comm_rows = [
            [
                kind,
                count,
                f"{total / count:.4f}",
                f"{peak:.4f}",
                f"{total:.3f}",
            ]
            for kind, (count, total, peak) in sorted(report.comm_by_kind.items())
        ]
        sections.append(
            format_table(
                ["message kind", "delivered", "mean latency", "max latency",
                 "total"],
                comm_rows,
                title="Message delivery latency by kind",
            )
        )

    if report.fault_events:
        fault_rows = [
            [name, count] for name, count in sorted(report.fault_events.items())
        ]
        sections.append(
            format_table(["fault event", "count"], fault_rows,
                         title="Injected faults and degradations")
        )

    sections.append(f"{report.n_events} trace events")
    return "\n\n".join(sections)
