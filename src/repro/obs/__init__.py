"""Observability: sim-time tracing, metrics, forensics, run reports.

``repro.obs`` is the third leg of the repo's tooling tripod — static
checks live in ``tools/abdlint.py``, runtime correctness in
:mod:`repro.check`, and *visibility* here:

* :mod:`repro.obs.ambient` — the one gate/scope/ship primitive behind
  the sanitize flag, the tracer and the auditor (environment default,
  ``enable``/``scoped``, worker propagation; zero overhead off);
* :mod:`repro.obs.jsonl` — the one JSONL record sink (JSON coercion,
  writer, lenient loader) the trace and audit streams share;
* :mod:`repro.obs.trace` — span tracer keyed to simulator time (round
  indices for the round trainer);
* :mod:`repro.obs.metrics` — deterministic counters/gauges/fixed-bucket
  histograms snapshotted into the trace stream;
* :mod:`repro.obs.export` — JSONL schema validation and Chrome
  ``trace_event`` export for ``about://tracing``;
* :mod:`repro.obs.audit` — defence forensics: per-device decision
  records (aggregation evidence, consensus masks, injected-fault ground
  truth) and run manifests;
* :mod:`repro.obs.audit_report` — detection precision/recall tables and
  cross-run regression diffs;
* :mod:`repro.obs.report` — the Table-V-style wait/compute/comm
  breakdown.

A run's streams are persisted only as a run directory
(``scenario run --out DIR --trace --audit``,
:mod:`repro.scenario.rundir`); ``python -m repro inspect DIR`` composes
the two renderers over it.

Nothing under ``src/`` reads the wall clock: wall-clock attribution is
the perf ledger's job (``python benchmarks/ledger/run.py``), which
brackets these layers from the outside.
"""

from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    AuditSchemaError,
    Auditor,
    audited,
    auditor,
    build_manifest,
    load_audit,
    load_manifest,
    validate_record,
    write_manifest,
)
from repro.obs.audit_report import (
    AuditDiff,
    AuditReport,
    DetectionStats,
    build_audit_report,
    diff_audit,
    render_audit_report,
    render_diff,
)
from repro.obs.export import (
    TraceSchemaError,
    load_trace,
    to_chrome_trace,
    validate_event,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import PhaseBreakdown, RunReport, build_report, render_report
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    disable,
    enable,
    enabled,
    scoped,
    traced,
    tracer,
)

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditSchemaError",
    "Auditor",
    "audited",
    "auditor",
    "build_manifest",
    "load_audit",
    "load_manifest",
    "validate_record",
    "write_manifest",
    "AuditDiff",
    "AuditReport",
    "DetectionStats",
    "build_audit_report",
    "diff_audit",
    "render_audit_report",
    "render_diff",
    "TraceSchemaError",
    "load_trace",
    "to_chrome_trace",
    "validate_event",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseBreakdown",
    "RunReport",
    "build_report",
    "render_report",
    "TraceEvent",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "scoped",
    "traced",
    "tracer",
]
