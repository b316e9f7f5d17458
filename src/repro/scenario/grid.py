"""Grid cells and the per-kind cell tasks.

A :class:`ScenarioCell` is one point of a spec's expanded grid
(:func:`repro.scenario.kinds.expand_cells`); each ``*_task`` function
evaluates one cell of one scenario kind through that kind's single-cell
primitive in :mod:`repro.experiments`.  The tasks are module-level so
:func:`repro.parallel.parallel_map` can ship ``(spec, cell)`` tuples to
spawn workers, and they add no trace or audit events of their own —
everything a run records comes from the trainer / consensus machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.experiments.backdoor import BackdoorCell, run_backdoor_cell
from repro.experiments.figure2 import PipelineCell, run_pipeline_cell
from repro.experiments.figure3 import ConvergenceCell, run_convergence_cell
from repro.experiments.matrix import MatrixCell, defence_options_for, gradient_gap
from repro.experiments.schemes import SchemeOutcome, run_scheme
from repro.experiments.setup import ExperimentConfig
from repro.experiments.table5 import Table5Cell, run_cell
from repro.experiments.theorem2 import TolerancePoint, run_tolerance_point
from repro.topology.tree import build_ecsm

if TYPE_CHECKING:
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "ScenarioCell",
    "Task",
    "accuracy_task",
    "convergence_task",
    "scheme_task",
    "backdoor_task",
    "tolerance_task",
    "pipeline_task",
    "gap_task",
    "breakdown_task",
]


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the expanded grid (the kind's axes resolved; axes the
    kind does not span keep their neutral defaults)."""

    index: int
    seed: int
    attack: str = "none"
    fraction: float = 0.0
    distribution: str | None = None
    defence: str | None = None
    scheme: int | None = None


#: What a cell task receives (one picklable item of the fan-out).
Task = tuple["ScenarioSpec", ScenarioCell]


def _cell_config(spec: "ScenarioSpec", cell: ScenarioCell) -> ExperimentConfig:
    """The trainer-based cell's config: the spec's base with the paper's
    per-distribution aggregator pairing and the cell's axes applied."""
    return replace(
        spec.base_experiment_config().for_distribution(cell.distribution == "iid"),
        attack=cell.attack,
        malicious_fraction=cell.fraction,
        seed=cell.seed,
    )


def accuracy_task(task: Task) -> Table5Cell:
    spec, cell = task
    return run_cell(_cell_config(spec, cell), n_runs=spec.n_runs)


def convergence_task(task: Task) -> ConvergenceCell:
    spec, cell = task
    return run_convergence_cell(_cell_config(spec, cell), n_runs=spec.n_runs)


def scheme_task(task: Task) -> SchemeOutcome:
    spec, cell = task
    assert cell.scheme is not None
    return run_scheme(_cell_config(spec, cell), cell.scheme)


def backdoor_task(task: Task) -> BackdoorCell:
    spec, cell = task
    return run_backdoor_cell(_cell_config(spec, cell))


def tolerance_task(task: Task) -> TolerancePoint:
    spec, cell = task
    return run_tolerance_point(
        _cell_config(spec, cell), spec.tolerance.gamma1, spec.tolerance.gamma2
    )


def pipeline_task(task: Task) -> PipelineCell:
    spec, cell = task
    return run_pipeline_cell(
        build_ecsm(
            n_levels=spec.topology.n_levels,
            cluster_size=spec.topology.cluster_size,
            n_top=spec.topology.n_top,
        ),
        flag_level=spec.pipeline.flag_level,
        global_delay=spec.pipeline.global_delay,
        n_rounds=spec.pipeline.n_rounds,
        seed=cell.seed,
    )


def _gap_cell(spec: "ScenarioSpec", cell: ScenarioCell, attack: str) -> MatrixCell:
    """One gradient-estimation cell applying ``attack`` (the cell keeps
    its own attack label)."""
    defence = cell.defence
    assert defence is not None
    options = (
        dict(spec.defence_options)
        if spec.defence_options is not None
        else defence_options_for(defence, cell.fraction)
    )
    gap = gradient_gap(
        defence,
        attack,
        n_total=spec.estimation.n_total,
        byzantine_fraction=cell.fraction,
        dim=spec.estimation.dim,
        noise=spec.estimation.noise,
        n_trials=spec.estimation.n_trials,
        seed=cell.seed,
        defence_options=options,
        attack_options=dict(spec.attack_options) or None,
        consensus=spec.consensus,
        consensus_adversary=spec.consensus_adversary,
        consensus_options=dict(spec.consensus_options) or None,
        fault_plan=spec.fault_plan(),
        drop_fraction=spec.drop_fraction,
    )
    return MatrixCell(
        defence=defence,
        attack=cell.attack,
        byzantine_fraction=cell.fraction,
        gap=gap,
        consensus=spec.consensus,
        consensus_adversary=spec.consensus_adversary,
    )


def gap_task(task: Task) -> MatrixCell:
    spec, cell = task
    return _gap_cell(spec, cell, cell.attack)


def breakdown_task(task: Task) -> MatrixCell:
    # The clean anchor of a breakdown curve applies no attack; the cell
    # keeps the requested attack label so the curve groups together.
    spec, cell = task
    return _gap_cell(spec, cell, cell.attack if cell.fraction > 0 else "none")
