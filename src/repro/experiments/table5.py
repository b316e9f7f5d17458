"""Table V: final test accuracy, ABD-HFL vs vanilla FL.

The grid is (data distribution) x (attack type) x (malicious proportion),
each cell averaging the final-round accuracy over repeated runs — the
paper uses five repeats; the reduced default uses fewer.

:func:`run_cell` is the single-cell primitive the ``accuracy_grid``
scenario kind (:mod:`repro.scenario`) fans out; the grid itself ships as
``specs/table5.toml`` (reduced scale) and ``specs/table5_paper.toml``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.setup import ExperimentConfig, train_systems
from repro.utils.tables import format_percent, format_table

__all__ = ["Table5Cell", "run_cell", "format_table5"]


@dataclass
class Table5Cell:
    """One (distribution, attack, fraction) cell of the grid."""

    iid: bool
    attack: str
    malicious_fraction: float
    abdhfl_accuracy: float
    vanilla_accuracy: float
    abdhfl_std: float = 0.0
    vanilla_std: float = 0.0
    n_runs: int = 1


def run_cell(
    config: ExperimentConfig,
    n_runs: int = 1,
) -> Table5Cell:
    """Train both systems ``n_runs`` times; average final accuracy."""
    abd_scores: list[float] = []
    van_scores: list[float] = []
    for _, trainers in train_systems(config, n_runs):
        abd_scores.append(trainers["abdhfl"].history[-1].test_accuracy)
        van_scores.append(trainers["vanilla"].history[-1].test_accuracy)
    return Table5Cell(
        iid=config.iid,
        attack=config.attack,
        malicious_fraction=config.malicious_fraction,
        abdhfl_accuracy=float(np.mean(abd_scores)),
        vanilla_accuracy=float(np.mean(van_scores)),
        abdhfl_std=float(np.std(abd_scores)),
        vanilla_std=float(np.std(van_scores)),
        n_runs=n_runs,
    )


def format_table5(cells: list[Table5Cell]) -> str:
    """Render the grid in the paper's Table V layout."""
    fractions = sorted({c.malicious_fraction for c in cells})
    headers = ["Distribution", "Attack", "Model"] + [
        format_percent(f) for f in fractions
    ]
    by_key: dict[tuple[bool, str], dict[float, Table5Cell]] = {}
    for cell in cells:
        by_key.setdefault((cell.iid, cell.attack), {})[cell.malicious_fraction] = cell
    rows: list[list[str]] = []
    for (iid, attack), per_frac in sorted(by_key.items(), key=lambda kv: (not kv[0][0], kv[0][1])):
        dist = "IID" if iid else "non-IID"
        for model in ("ABD-HFL", "Vanilla FL"):
            row = [dist, attack, model]
            for f in fractions:
                cell = per_frac.get(f)
                if cell is None:
                    row.append("-")
                else:
                    acc = (
                        cell.abdhfl_accuracy
                        if model == "ABD-HFL"
                        else cell.vanilla_accuracy
                    )
                    row.append(format_percent(acc))
            rows.append(row)
    return format_table(headers, rows, title="Table V - final testing accuracy")
