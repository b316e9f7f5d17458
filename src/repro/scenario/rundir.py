"""The run directory: the one persisted form of a scenario run.

``python -m repro scenario run SPEC --out DIR`` is its only writer
(:func:`record`) and ``python -m repro inspect DIR`` its only reader
(:func:`read`); the layout is known to this module alone:

``manifest.json``
    Provenance (:func:`repro.obs.audit.build_manifest`: full spec dict,
    seed-tree root, registered rule/protocol/attack names, package
    version) plus ``"status"``: ``running`` from before the first cell,
    then ``complete`` — or ``failed`` with the exception's repr under
    ``"error"``.
``report.txt``, ``cells.json``, ``cells.csv``
    The rendered report and the result cells (complete runs only).
``trace.jsonl``, ``audit.jsonl``
    The observer streams.  A file exists exactly when its observer was
    on (``--trace`` / ``--audit`` or the ``REPRO_*`` gate), so an empty
    file reads "on, nothing recorded" and a missing one "off".  A failed
    run still leaves the rows of every cell that finished before it.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments.io import (
    collect_registries,
    save_records_csv,
    save_records_json,
)
from repro.obs import audit, trace
from repro.obs.export import validate_event
from repro.obs.jsonl import load_jsonl, write_text
from repro.scenario.runner import ScenarioResult, ScenarioRunner
from repro.scenario.spec import ScenarioSpec

__all__ = ["RunDir", "record", "read"]

_MANIFEST = "manifest.json"
_REPORT = "report.txt"
_CELLS_JSON = "cells.json"
_CELLS_CSV = "cells.csv"
#: stream name -> (file, line schema, the ambient sink's getter)
_STREAMS = {
    "audit": ("audit.jsonl", audit.validate_record, audit.auditor),
    "trace": ("trace.jsonl", validate_event, trace.tracer),
}


def _save_streams(out: Path) -> dict[str, Path]:
    """Write the stream of every sink that is on, rows or not."""
    paths: dict[str, Path] = {}
    for key, (name, _, installed) in _STREAMS.items():
        sink = installed()
        if sink is not None:
            paths[key] = sink.save(out / name)
    return paths


def record(
    spec: ScenarioSpec,
    out_dir: "str | Path",
    *,
    workers: int | None = None,
    command: str | None = None,
    traced: bool = False,
    audited: bool = False,
) -> tuple[ScenarioResult, dict[str, Path]]:
    """Run ``spec`` and leave its run directory under ``out_dir``.

    ``traced`` / ``audited`` scope a fresh sink around the run; a sink
    that is already on (``REPRO_TRACE=1``, an enclosing ``traced()``) is
    written just the same.  The manifest is on disk before the first
    cell runs, and when the run raises the streams are flushed and the
    manifest marked ``failed`` before the exception propagates.  Returns
    the result and the written paths by artifact name.
    """
    out = Path(out_dir)
    manifest = audit.build_manifest(
        command=command,
        spec=spec.to_dict(),
        seed=spec.seed,
        registries=collect_registries(),
    )
    audit.write_manifest(out / _MANIFEST, {**manifest, "status": "running"})
    with ExitStack() as stack:
        if traced:
            stack.enter_context(trace.traced())
        if audited:
            stack.enter_context(audit.audited())
        try:
            result = ScenarioRunner(workers=workers).run(spec)
        except BaseException as exc:
            _save_streams(out)
            failed = {**manifest, "status": "failed", "error": repr(exc)}
            audit.write_manifest(out / _MANIFEST, failed)
            raise
        paths = {"report": write_text(out / _REPORT, result.table + "\n")}
        if result.cells:
            paths["cells_json"] = save_records_json(out / _CELLS_JSON, result.cells)
            paths["cells_csv"] = save_records_csv(out / _CELLS_CSV, result.cells)
        paths["manifest"] = audit.write_manifest(
            out / _MANIFEST, {**manifest, "status": "complete"}
        )
        paths.update(_save_streams(out))
    return result, paths


@dataclass(frozen=True)
class RunDir:
    """A run directory read back.  ``trace`` / ``audit`` are ``None``
    when that stream was off; ``skipped`` maps a stream file to the
    ``(line_number, reason)`` pairs of the lines that did not validate."""

    manifest: dict[str, Any]
    report: str | None
    trace: list[dict[str, object]] | None
    audit: list[dict[str, object]] | None
    skipped: dict[Path, list[tuple[int, str]]]


def read(
    run_dir: "str | Path",
    strict: bool = False,
    streams: tuple[str, ...] = ("trace", "audit"),
) -> RunDir:
    """Load the run directory at ``run_dir``.

    Only the ``streams`` asked for are parsed (a traced run's file can be
    hundreds of MB; the cross-run diff needs the audit records alone) —
    the others read as off.  Raises :class:`FileNotFoundError` unless the
    directory holds a manifest, and :class:`ValueError` for a malformed
    manifest or — with ``strict`` — the first stream line that fails its
    schema (otherwise such lines are collected in :attr:`RunDir.skipped`).
    """
    out = Path(run_dir)
    if not (out / _MANIFEST).is_file():
        raise FileNotFoundError(f"{out} is not a run directory (no {_MANIFEST})")
    manifest = audit.load_manifest(out / _MANIFEST)
    loaded: dict[str, list[dict[str, object]] | None] = dict.fromkeys(_STREAMS)
    skipped: dict[Path, list[tuple[int, str]]] = {}
    for key in streams:
        name, validate, _ = _STREAMS[key]
        path = out / name
        if path.is_file():
            loaded[key], bad = load_jsonl(path, validate)
            if bad and strict:
                lineno, reason = bad[0]
                raise ValueError(f"{path}:{lineno}: {reason}")
            if bad:
                skipped[path] = bad
    report = out / _REPORT
    return RunDir(
        manifest=manifest,
        report=report.read_text(encoding="utf-8") if report.is_file() else None,
        trace=loaded["trace"],
        audit=loaded["audit"],
        skipped=skipped,
    )
