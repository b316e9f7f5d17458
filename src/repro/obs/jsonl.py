"""The one JSONL record sink shared by the trace and audit streams.

The two streams differ only in their closed schema
(:func:`repro.obs.export.validate_event`,
:func:`repro.obs.audit.validate_record`); the coercion of payloads into
JSON-safe data, the writer and the lenient loader live here once.  JSON
keys are sorted and non-finite floats map to ``null``, so identical
seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from operator import methodcaller
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = ["RecordSink", "load_jsonl", "write_text"]


def _jsonable(value: object) -> object:
    """Coerce ``value`` into deterministic JSON-safe data.

    Non-finite floats become ``None`` (strict JSON has no NaN/Inf), numpy
    arrays and scalars collapse to (nested lists of) python values,
    mappings/sequences recurse, and anything else falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    for unwrap in ("tolist", "item"):  # numpy array/scalar, zero-dim duck types
        method = getattr(value, unwrap, None)
        if callable(method):
            return _jsonable(method())
    return str(value)


def write_text(path: "str | Path", text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


class RecordSink:
    """An in-memory record list with deterministic JSONL output.

    :attr:`rows` is the live list — what a worker ships back and what
    :func:`repro.obs.ambient.merge` extends; subclasses also expose it
    under its domain name (``Tracer.events``, ``Auditor.records``).  Rows
    are JSON objects, or carry an ``as_dict()`` producing one.
    """

    def __init__(self) -> None:
        self.rows: list[Any] = []

    def to_jsonl(self) -> str:
        """Serialise all rows, one sorted-key JSON object per line."""
        as_dict = methodcaller("as_dict")
        lines = [
            json.dumps(row, sort_keys=True, allow_nan=False, default=as_dict)
            for row in self.rows
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def save(self, path: "str | Path") -> Path:
        """Write the JSONL stream to ``path`` (parents created)."""
        return write_text(path, self.to_jsonl())


def load_jsonl(
    path: "str | Path", validate: Callable[[dict[str, object]], object]
) -> tuple[list[dict[str, object]], list[tuple[int, str]]]:
    """Parse a JSONL file into ``(records, skipped)``.

    Every non-blank line must hold a JSON object that ``validate``
    accepts (it raises ``ValueError`` otherwise).  Lines that do not are
    collected as ``(line_number, reason)`` pairs, so a file with a few
    foreign or corrupt lines still loads while the caller can *tell* the
    user how many were ignored — or refuse the file by raising on the
    first pair, as the strict loaders do.
    """
    records: list[dict[str, object]] = []
    skipped: list[tuple[int, str]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            validate(record)
        except ValueError as exc:
            skipped.append((lineno, str(exc)))
        else:
            records.append(record)
    return records, skipped
