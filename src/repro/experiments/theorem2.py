"""Theorem 2: theoretical vs empirical Byzantine tolerance.

Two parts:

* exact validation — compare the closed forms against brute-force counts
  on generated p-ratio two-type trees (delegated to
  :mod:`repro.topology.analysis`);
* empirical cliff — sweep the malicious proportion across the theoretical
  bound and locate where ABD-HFL's final accuracy actually collapses.
  The paper's worked example (gamma1 = gamma2 = 25 %, l = 2) predicts
  57.8125 %; Table V shows ABD-HFL holding ~90 % up to that point and
  degrading gracefully beyond it.

:func:`run_tolerance_point` is the single-cell primitive of the
``tolerance_sweep`` scenario kind (``specs/tolerance.toml``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.setup import ExperimentConfig, train_systems
from repro.topology.analysis import max_byzantine_fraction

__all__ = ["TolerancePoint", "tolerance_bound", "run_tolerance_point"]


@dataclass
class TolerancePoint:
    """One malicious-fraction sample of the empirical sweep."""

    malicious_fraction: float
    accuracy: float
    below_bound: bool


def tolerance_bound(n_levels: int, gamma1: float, gamma2: float) -> float:
    """The closed-form maximum tolerated proportion for an
    ``n_levels``-deep hierarchy (Theorem 2 at its bottom level)."""
    return max_byzantine_fraction(gamma1, gamma2, n_levels - 1)


def run_tolerance_point(
    config: ExperimentConfig, gamma1: float, gamma2: float
) -> TolerancePoint:
    """ABD-HFL's final accuracy at ``config.malicious_fraction``, tagged
    with which side of the Theorem-2 bound the fraction sits on."""
    [(_, trainers)] = train_systems(config, systems=("abdhfl",))
    return TolerancePoint(
        malicious_fraction=config.malicious_fraction,
        accuracy=trainers["abdhfl"].history[-1].test_accuracy,
        below_bound=config.malicious_fraction
        <= tolerance_bound(config.n_levels, gamma1, gamma2),
    )
