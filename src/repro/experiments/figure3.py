"""Figure 3: convergence curves with confidence bands.

For selected attack scenarios, train both systems for every global round,
repeat ``n_runs`` times with sibling seeds, and report per-round mean
accuracy plus a normal-approximation confidence interval — the gray bands
of the paper's figure.

:func:`run_convergence_cell` is the single-cell primitive of the
``convergence`` scenario kind (``specs/figure3.toml``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.setup import ExperimentConfig, train_systems

__all__ = ["ConvergenceCurve", "ConvergenceCell", "run_convergence_cell"]


@dataclass
class ConvergenceCurve:
    """Per-round accuracy trajectory of one system in one scenario."""

    label: str
    rounds: np.ndarray           # [R]
    mean: np.ndarray             # [R]
    ci_half_width: np.ndarray    # [R] 95% normal CI half-width
    runs: np.ndarray             # [n_runs, R] raw trajectories

    @property
    def final_accuracy(self) -> float:
        return float(self.mean[-1])


def _curve(label: str, trajectories: tuple[tuple[float, ...], ...]) -> ConvergenceCurve:
    runs = np.asarray(trajectories)
    mean = runs.mean(axis=0)
    if runs.shape[0] > 1:
        sem = runs.std(axis=0, ddof=1) / np.sqrt(runs.shape[0])
    else:
        sem = np.zeros_like(mean)
    return ConvergenceCurve(
        label=label,
        rounds=np.arange(runs.shape[1]),
        mean=mean,
        ci_half_width=1.96 * sem,
        runs=runs,
    )


@dataclass
class ConvergenceCell:
    """One scenario's raw per-run accuracy trajectories for both systems
    (plain tuples, so cells compare exactly and persist as JSON); the
    mean/CI curves are derived views."""

    iid: bool
    attack: str
    malicious_fraction: float
    abdhfl_runs: tuple[tuple[float, ...], ...]   # [n_runs][R]
    vanilla_runs: tuple[tuple[float, ...], ...]  # [n_runs][R]

    @property
    def abdhfl(self) -> ConvergenceCurve:
        return _curve("ABD-HFL", self.abdhfl_runs)

    @property
    def vanilla(self) -> ConvergenceCurve:
        return _curve("Vanilla FL", self.vanilla_runs)


def run_convergence_cell(config: ExperimentConfig, n_runs: int) -> ConvergenceCell:
    """Train both systems ``n_runs`` times, keeping every round's accuracy."""
    abd_runs: list[tuple[float, ...]] = []
    van_runs: list[tuple[float, ...]] = []
    for _, trainers in train_systems(config, n_runs):
        abd_runs.append(tuple(r.test_accuracy for r in trainers["abdhfl"].history))
        van_runs.append(tuple(r.test_accuracy for r in trainers["vanilla"].history))
    return ConvergenceCell(
        iid=config.iid,
        attack=config.attack,
        malicious_fraction=config.malicious_fraction,
        abdhfl_runs=tuple(abd_runs),
        vanilla_runs=tuple(van_runs),
    )
