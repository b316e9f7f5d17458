"""The single orchestrator executing any :class:`ScenarioSpec`.

:class:`ScenarioRunner` validates the spec, expands its grid
(:func:`repro.scenario.kinds.expand_cells`), fans the cells out through
:func:`repro.parallel.parallel_map` (worker count is a pure wall-clock
knob — results and merged traces are bit-identical for any value), and
renders the kind's report.  The runner adds *no* trace events of its
own: everything in a trace comes from the underlying trainer/consensus
machinery, so a spec-driven run's trace is byte-identical to a plain
loop over the single-cell primitives.

Canonical specs ship inside the package (``repro/scenario/specs/*.toml``)
and are addressable by bare name from the CLI (``scenario run table5``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from repro.experiments.io import (
    collect_registries,
    save_records_csv,
    save_records_json,
)
from repro.obs import audit, trace
from repro.parallel import parallel_map
from repro.scenario.grid import ScenarioCell
from repro.scenario.io import load_scenario, loads_scenario
from repro.scenario.kinds import cell_task, expand_cells, render_result
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "run_manifest",
    "persist_result",
    "shipped_spec_names",
    "load_shipped_spec",
    "resolve_spec",
]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    grid: tuple[ScenarioCell, ...]
    cells: list = field(default_factory=list)

    @property
    def table(self) -> str:
        """The rendered report (lazy: rendering is pure over the cells)."""
        return render_result(self.spec, self.cells)


@dataclass(frozen=True)
class ScenarioRunner:
    """Expand-and-execute orchestrator; ``workers`` as in
    :func:`repro.parallel.parallel_map` (``None`` = ``REPRO_WORKERS`` or
    serial)."""

    workers: int | None = None

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        spec.validate()
        grid = expand_cells(spec)
        task = cell_task(spec)
        cells = parallel_map(
            task, [(spec, cell) for cell in grid], workers=self.workers
        )
        return ScenarioResult(spec=spec, grid=tuple(grid), cells=cells)


def run_scenario(
    spec: ScenarioSpec, workers: int | None = None
) -> ScenarioResult:
    """Convenience wrapper: ``ScenarioRunner(workers).run(spec)``."""
    return ScenarioRunner(workers=workers).run(spec)


# ----------------------------------------------------------------------
# run artifacts
# ----------------------------------------------------------------------
def run_manifest(
    spec: ScenarioSpec, command: str | None = None
) -> dict[str, Any]:
    """The provenance manifest for one spec run (see
    :mod:`repro.obs.audit`): full spec dict, seed-tree root, registered
    rule/protocol/attack names, package version."""
    return audit.build_manifest(
        command=command,
        spec=spec.to_dict(),
        seed=spec.seed,
        registries=collect_registries(),
    )


def persist_result(
    result: ScenarioResult,
    out_dir: "str | Path",
    manifest: "dict[str, Any] | None" = None,
) -> dict[str, Path]:
    """Write a run's artifacts under ``out_dir`` and return their paths.

    Always: the rendered report (``report.txt``) and the result cells as
    both JSON and CSV (``cells.json`` / ``cells.csv``, via
    :mod:`repro.experiments.io`).  When ``manifest`` is given it lands in
    ``manifest.json``; when an ambient auditor / tracer holds records they
    land in ``audit.jsonl`` / ``trace.jsonl``, making the directory a
    self-contained unit both ``python -m repro audit <dir>`` and
    ``python -m repro report <dir>/trace.jsonl`` consume.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    report_path = out / "report.txt"
    report_path.write_text(result.table + "\n", encoding="utf-8")
    paths["report"] = report_path
    if result.cells:
        paths["cells_json"] = save_records_json(out / "cells.json", result.cells)
        paths["cells_csv"] = save_records_csv(out / "cells.csv", result.cells)
    if manifest is not None:
        paths["manifest"] = audit.write_manifest(out / "manifest.json", manifest)
    auditor = audit.auditor()
    if auditor is not None and auditor.records:
        paths["audit"] = auditor.save(out / "audit.jsonl")
    tracer = trace.tracer()
    if tracer is not None and tracer.events:
        paths["trace"] = tracer.save(out / "trace.jsonl")
    return paths


# ----------------------------------------------------------------------
# shipped canonical specs
# ----------------------------------------------------------------------
def _specs_root(package: str = "repro.scenario") -> Any:
    return resources.files(package) / "specs"


def shipped_spec_names() -> list[str]:
    """Bare names of the canonical specs shipped with the package."""
    root = _specs_root()
    return sorted(
        entry.name[: -len(".toml")]
        for entry in root.iterdir()
        if entry.name.endswith(".toml")
    )


def load_shipped_spec(name: str) -> ScenarioSpec:
    """Load a shipped spec by bare name (``"table5"``)."""
    entry = _specs_root() / f"{name}.toml"
    if not entry.is_file():
        raise ValueError(
            f"unknown shipped scenario {name!r}; available: "
            f"{shipped_spec_names()}"
        )
    try:
        return loads_scenario(entry.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{name}.toml: {exc}") from None


def resolve_spec(ref: str) -> ScenarioSpec:
    """A spec from a filesystem path or a shipped bare name.

    Only a regular file (or anything spelled ``*.toml``) is read as a
    path — a directory that happens to share a shipped spec's name (say,
    a previous run's ``--out smoke``) must not shadow it.  An unreadable
    path raises :class:`ValueError` like every other bad spec.
    """
    path = Path(ref)
    if path.suffix != ".toml" and not path.is_file():
        return load_shipped_spec(ref)
    try:
        return load_scenario(path)
    except OSError as exc:
        raise ValueError(f"{ref}: cannot read spec file ({exc.strerror})") from None
