"""Experiment harness: builders and single-cell primitives for every
table and figure.

Each experiment module owns one paper artefact — its cell dataclass and
the primitive that computes one cell; :mod:`repro.scenario` expands a
shipped spec into cells, fans them out and renders the report:

* :mod:`repro.experiments.table5` — final test accuracy grid (Table V);
* :mod:`repro.experiments.figure2` — event-driven pipeline timing and the
  overall efficiency indicator (Figure 2);
* :mod:`repro.experiments.figure3` — convergence curves with confidence
  bands over repeated runs (Figure 3);
* :mod:`repro.experiments.theorem2` — theoretical-vs-empirical Byzantine
  tolerance (Theorem 2 and the 57.8 % worked example);
* :mod:`repro.experiments.schemes` — scheme 1–4 robustness vs
  communication cost (Tables III/IV);
* :mod:`repro.experiments.backdoor` — clean accuracy and attack success
  rate under trigger backdoors (Table I);
* :mod:`repro.experiments.matrix` — the attack × defence robustness
  matrix implied by Tables I/II.

:mod:`repro.experiments.setup` centralises construction so ABD-HFL and
vanilla FL always see identical data, models and randomness, and owns
the one trainer-run loop (:func:`train_systems`) the trainer-based
artefacts share.
"""

from repro.experiments.setup import (
    ExperimentConfig,
    ExperimentData,
    prepare_data,
    build_abdhfl_trainer,
    build_vanilla_trainer,
    train_systems,
)
from repro.experiments.table5 import run_cell, Table5Cell, format_table5
from repro.experiments.figure2 import run_pipeline_cell, PipelineCell
from repro.experiments.figure3 import (
    run_convergence_cell,
    ConvergenceCell,
    ConvergenceCurve,
)
from repro.experiments.theorem2 import run_tolerance_point, TolerancePoint
from repro.experiments.schemes import run_scheme, SchemeOutcome
from repro.experiments.matrix import gradient_gap, defence_options_for, MatrixCell
from repro.experiments.analysis import summarize, crossover_round, auc_gap, convergence_round
from repro.experiments.backdoor import (
    run_backdoor_cell,
    BackdoorCell,
    attack_success_rate,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentData",
    "prepare_data",
    "build_abdhfl_trainer",
    "build_vanilla_trainer",
    "train_systems",
    "run_cell",
    "Table5Cell",
    "format_table5",
    "run_pipeline_cell",
    "PipelineCell",
    "run_convergence_cell",
    "ConvergenceCell",
    "ConvergenceCurve",
    "run_tolerance_point",
    "TolerancePoint",
    "run_scheme",
    "SchemeOutcome",
    "gradient_gap",
    "defence_options_for",
    "MatrixCell",
    "summarize",
    "crossover_round",
    "auc_gap",
    "convergence_round",
    "run_backdoor_cell",
    "BackdoorCell",
    "attack_success_rate",
]
