"""Defence forensics: per-device audit records and run manifests.

The auditor is gated, scoped and shipped to workers by
:mod:`repro.obs.ambient` (``REPRO_AUDIT=1`` process-wide, ``with
audit.audited() as au:`` for a block).  When on, records are appended
to an in-memory list and serialised on demand.
Auditing is *read-only*: it never draws randomness and never changes
control flow, so an audited run is bit-identical to an unaudited run and
the record stream itself is byte-identical for every worker count.

Record model (one JSON object per line)
---------------------------------------
Every record carries ``kind`` and ``step`` (the trainer round index or
the gradient-estimation trial index).  Ambient fields — the evaluated
grid ``cell``, the contributing device ``members``, the aggregating
``level``/``cluster`` — are attached by the nearest
:meth:`Auditor.context` scope.

``decision``
    One aggregation-rule invocation: the rule's evidence (Krum scores,
    trimmed-coordinate fractions, GeoMed weights, clustering labels, …)
    read from the already-cached distance kernels, plus an optional
    per-input ``rejected`` mask for rules that make a hard choice.
``consensus``
    One :meth:`ConsensusProtocol.agree` instance: accepted / silent /
    equivocated masks next to the *input* Byzantine mask.
``ground_truth``
    The injected-fault ground truth for a step: which members were
    actually Byzantine and which were crash-silent.
``fault``
    A crash / recover transition from :mod:`repro.faults`.
``metric``
    A named scalar outcome (``gradient_gap``, accuracy, …).

The **run manifest** is a separate JSON document written next to the
record stream (the run directory, :mod:`repro.scenario.rundir`):
spec/config dict, root seed, registry contents and the package version
— enough to attribute any archived run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import ContextManager, Iterator, Mapping

from repro.obs.ambient import Slot
from repro.obs.jsonl import RecordSink, _jsonable, load_jsonl, write_text

__all__ = [
    "AuditSchemaError",
    "Auditor",
    "auditor",
    "enabled",
    "enable",
    "disable",
    "scoped",
    "audited",
    "context",
    "validate_record",
    "load_audit",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "RECORD_KINDS",
    "AUDIT_SCHEMA_VERSION",
]

#: Version tag stamped into every manifest (bump on record-schema changes).
AUDIT_SCHEMA_VERSION = 1


class AuditSchemaError(ValueError):
    """An audit record or manifest violates the schema."""


# ----------------------------------------------------------------------
# record schema
# ----------------------------------------------------------------------
_COMMON_OPTIONAL = frozenset({"cell", "members", "trial"})

#: kind -> (required fields, additionally-allowed fields)
_SCHEMAS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "decision": (
        frozenset({"kind", "step", "rule", "n", "evidence"}),
        _COMMON_OPTIONAL | {"rejected", "node", "level", "cluster"},
    ),
    "consensus": (
        frozenset(
            {
                "kind",
                "step",
                "protocol",
                "n",
                "accepted",
                "silent",
                "byzantine",
                "equivocated",
                "excluded",
            }
        ),
        _COMMON_OPTIONAL | {"rejected", "evidence"},
    ),
    "ground_truth": (
        frozenset({"kind", "step", "n", "byzantine", "silent"}),
        _COMMON_OPTIONAL,
    ),
    "fault": (
        frozenset({"kind", "step", "event", "device"}),
        _COMMON_OPTIONAL,
    ),
    "metric": (
        frozenset({"kind", "step", "name", "value"}),
        _COMMON_OPTIONAL,
    ),
}

#: The record kinds the schema admits.
RECORD_KINDS: tuple[str, ...] = tuple(sorted(_SCHEMAS))

_BOOL_LIST_FIELDS = ("rejected", "accepted", "silent", "byzantine")


def validate_record(record: Mapping[str, object]) -> None:
    """Raise :class:`AuditSchemaError` unless ``record`` fits the schema."""
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMAS:
        raise AuditSchemaError(f"unknown record kind {kind!r}")
    required, optional = _SCHEMAS[kind]
    missing = required - record.keys()
    if missing:
        raise AuditSchemaError(f"{kind} record missing {sorted(missing)}")
    unknown = record.keys() - required - optional
    if unknown:
        raise AuditSchemaError(f"{kind} record has unknown {sorted(unknown)}")
    step = record.get("step")
    if not isinstance(step, int) or isinstance(step, bool):
        raise AuditSchemaError(f"step must be an int, got {step!r}")
    if kind == "ground_truth":
        for field in ("byzantine", "silent"):
            ids = record[field]
            if not isinstance(ids, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in ids
            ):
                raise AuditSchemaError(
                    f"ground_truth {field} must be a list of ids"
                )
    else:
        for field in _BOOL_LIST_FIELDS:
            value = record.get(field)
            if value is None:
                continue
            if not isinstance(value, list) or not all(
                isinstance(v, bool) for v in value
            ):
                raise AuditSchemaError(f"{field} must be a list of booleans")
    members = record.get("members")
    if members is not None and (
        not isinstance(members, list)
        or not all(
            isinstance(m, int) and not isinstance(m, bool) for m in members
        )
    ):
        raise AuditSchemaError("members must be a list of device ids")
    for field in ("evidence", "cell"):
        value = record.get(field)
        if value is not None and not isinstance(value, dict):
            raise AuditSchemaError(f"{field} must be a JSON object")


class Auditor(RecordSink):
    """An in-memory sink of JSON-safe defence decision records."""

    def __init__(self) -> None:
        super().__init__()
        self._context: list[dict[str, object]] = []

    @property
    def records(self) -> list[dict[str, object]]:
        return self.rows

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    @contextmanager
    def context(self, **fields: object) -> Iterator[None]:
        """Attach ``fields`` to every record emitted inside the scope.

        ``None`` values are dropped; inner scopes shadow outer ones and
        explicit :meth:`record` fields shadow both.
        """
        frame = {k: v for k, v in fields.items() if v is not None}
        self._context.append(frame)
        try:
            yield
        finally:
            self._context.pop()

    def record(self, kind: str, **fields: object) -> None:
        """Append one ``kind`` record (ambient context merged in)."""
        if kind not in _SCHEMAS:
            raise AuditSchemaError(f"unknown record kind {kind!r}")
        merged: dict[str, object] = {"kind": kind}
        for frame in self._context:
            merged.update(frame)
        for key, value in fields.items():
            if value is not None:
                merged[key] = value
        merged.setdefault("step", 0)
        self.rows.append({k: _jsonable(v) for k, v in merged.items()})


# The process-wide gate: one ambient slot, re-exported under audit verbs.
_SLOT: Slot[Auditor] = Slot("audit", "REPRO_AUDIT", Auditor)

auditor = _SLOT.get
enabled = _SLOT.enabled
enable = _SLOT.enable
disable = _SLOT.disable
scoped = _SLOT.scoped
audited = _SLOT.fresh

_NO_CONTEXT: ContextManager[None] = nullcontext()


def context(**fields: object) -> ContextManager[None]:
    """:meth:`Auditor.context` on the active auditor; a no-op when off."""
    au = _SLOT.value
    return au.context(**fields) if au is not None else _NO_CONTEXT


def load_audit(
    path: "str | Path", strict: bool = False
) -> tuple[list[dict[str, object]], list[tuple[int, str]]]:
    """Parse a JSONL audit file into ``(records, skipped)``.

    Invalid lines are collected as ``(line_number, reason)`` pairs; with
    ``strict=True`` the first one raises :class:`AuditSchemaError`
    instead.  Blank lines are ignored.
    """
    records, skipped = load_jsonl(path, validate_record)
    if strict and skipped:
        lineno, reason = skipped[0]
        raise AuditSchemaError(f"line {lineno}: {reason}")
    return records, skipped


# ----------------------------------------------------------------------
# run manifest
# ----------------------------------------------------------------------
def _package_version() -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:  # source checkout without an install
        return "unknown"


def build_manifest(
    *,
    command: str | None = None,
    spec: Mapping[str, object] | None = None,
    seed: int | None = None,
    registries: Mapping[str, object] | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Assemble a run manifest dict (pure data, JSON-safe).

    ``spec`` is the scenario/config dict the run evaluated, ``seed`` the
    seed-tree root, ``registries`` the registered rule names (callers
    collect them; this module stays import-light).
    """
    manifest: dict[str, object] = {
        "schema": AUDIT_SCHEMA_VERSION,
        "package": {"name": "repro", "version": _package_version()},
    }
    if command is not None:
        manifest["command"] = command
    if spec is not None:
        manifest["spec"] = _jsonable(spec)
    if seed is not None:
        manifest["seed"] = int(seed)
    if registries is not None:
        manifest["registries"] = _jsonable(registries)
    if extra is not None:
        manifest["extra"] = _jsonable(extra)
    return manifest


def write_manifest(path: "str | Path", manifest: Mapping[str, object]) -> Path:
    """Write ``manifest`` as sorted-key JSON to ``path`` (parents created)."""
    return write_text(
        path, json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def load_manifest(path: "str | Path") -> dict[str, object]:
    """Read a manifest back; raises :class:`AuditSchemaError` if malformed."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise AuditSchemaError("manifest is not a JSON object")
    schema = data.get("schema")
    if not isinstance(schema, int):
        raise AuditSchemaError("manifest has no integer 'schema' field")
    if schema > AUDIT_SCHEMA_VERSION:
        raise AuditSchemaError(
            f"manifest schema {schema} is newer than supported "
            f"{AUDIT_SCHEMA_VERSION}"
        )
    return data
