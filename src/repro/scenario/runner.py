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

from repro.parallel import parallel_map
from repro.scenario.grid import ScenarioCell
from repro.scenario.io import load_scenario, loads_scenario
from repro.scenario.kinds import cell_task, expand_cells, render_result
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
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
