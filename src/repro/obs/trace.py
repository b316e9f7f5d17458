"""Span tracing keyed to simulator time, with deterministic JSONL output.

The tracer is gated, scoped and shipped to workers by
:mod:`repro.obs.ambient` (``REPRO_TRACE=1`` process-wide, ``with
trace.traced() as tr:`` for a block).  When on, events are appended to
an in-memory list and serialised on demand.

Determinism contract
--------------------
Tracing is *read-only*: it never draws randomness, never schedules
events, and never reorders anything — a traced run is bit-identical to
an untraced run.  The trace itself is deterministic too: events are
recorded in execution order, timestamps are simulation time (or round
indices for the round-synchronous trainer — never the wall clock), JSON
keys are sorted and non-finite floats are mapped to ``null``, so
identical seeds produce byte-identical trace files.

Event model (one JSON object per line)
--------------------------------------
``name``
    What happened (``"local_compute"``, ``"pbft.view_change"``, ...).
``cat``
    Grouping used by consumers; the run-report renderer understands
    ``"compute"`` / ``"comm"`` / ``"wait"`` spans, ``"fault"`` instants
    and ``"metrics"`` samples.
``ph``
    ``"X"`` — a complete span (``t`` start, ``dur`` length),
    ``"i"`` — an instant, ``"C"`` — a metrics sample.
``t`` / ``dur``
    Sim-time seconds (event-driven runs) or round index (round trainer).
``actor``
    Optional integer node/device id.
``args``
    Free-form JSON-safe payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.obs.ambient import Slot
from repro.obs.jsonl import RecordSink, _jsonable
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TraceEvent",
    "Tracer",
    "tracer",
    "enabled",
    "enable",
    "disable",
    "scoped",
    "traced",
]

#: Valid ``ph`` phase codes: span, instant, metrics sample.
PHASES: tuple[str, ...] = ("X", "i", "C")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace event (already JSON-safe)."""

    name: str
    cat: str
    ph: str
    t: float
    dur: float | None = None
    actor: int | None = None
    args: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "t": self.t,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        if self.actor is not None:
            out["actor"] = self.actor
        if self.args:
            out["args"] = self.args
        return out


class Tracer(RecordSink):
    """An in-memory event sink plus its metrics registry."""

    def __init__(self) -> None:
        super().__init__()
        self.metrics = MetricsRegistry()

    @property
    def events(self) -> list[TraceEvent]:
        return self.rows

    def _emit(
        self,
        name: str,
        cat: str,
        ph: str,
        t: float,
        dur: float | None,
        actor: int | None,
        args: Mapping[str, object],
    ) -> None:
        payload = {k: _jsonable(v) for k, v in args.items()}
        self.rows.append(TraceEvent(name, cat, ph, t, dur, actor, payload))

    def instant(
        self,
        name: str,
        cat: str,
        t: float,
        actor: int | None = None,
        **args: object,
    ) -> None:
        """Record an instantaneous event at time ``t``."""
        t = float(t)
        if math.isfinite(t):  # a NaN timestamp carries no information
            self._emit(name, cat, "i", t, None, actor, args)

    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        actor: int | None = None,
        **args: object,
    ) -> None:
        """Record a complete ``[start, end]`` span (``end >= start``)."""
        start = float(start)
        end = float(end)
        if math.isfinite(start) and math.isfinite(end) and end >= start:
            self._emit(name, cat, "X", start, end - start, actor, args)

    def snapshot_metrics(self, t: float) -> None:
        """Emit one ``"C"`` sample per registered metric at time ``t``."""
        t = float(t)
        if math.isfinite(t):
            for name, snap in self.metrics.snapshot().items():
                self._emit(name, "metrics", "C", t, None, None, snap)


# The process-wide gate: one ambient slot, re-exported under trace verbs.
_SLOT: Slot[Tracer] = Slot("trace", "REPRO_TRACE", Tracer)

tracer = _SLOT.get
enabled = _SLOT.enabled
enable = _SLOT.enable
disable = _SLOT.disable
scoped = _SLOT.scoped
traced = _SLOT.fresh
