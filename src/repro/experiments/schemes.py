"""Scheme comparison (Tables III/IV): robustness vs communication cost.

Runs the same attack scenario under all four Byzantine-resistance
schemes, recording the final accuracy (robustness) and both the measured
per-round message count and the analytic :mod:`repro.pipeline.costs`
bill — the quantitative counterpart of Table IV's qualitative entries.

:func:`run_scheme` is the single-cell primitive of the
``scheme_comparison`` scenario kind (``specs/schemes.toml``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schemes import SCHEME_DESCRIPTIONS, scheme_config
from repro.experiments.setup import ExperimentConfig, train_systems
from repro.pipeline.costs import scheme_round_cost

__all__ = ["CBA_NAME", "SchemeOutcome", "run_scheme"]

#: The consensus backend wherever a scheme deploys CBA.
CBA_NAME = "voting"


@dataclass
class SchemeOutcome:
    """One scheme's measured robustness and cost."""

    scheme: int
    partial_kind: str
    global_kind: str
    final_accuracy: float
    measured_model_messages_per_round: float
    analytic_model_messages: int
    analytic_scalar_messages: int


def run_scheme(config: ExperimentConfig, scheme: int) -> SchemeOutcome:
    """Train ABD-HFL under ``scheme``; collect accuracy and message bills.

    The BRA/CBA building blocks follow the experiment config (Multi-Krum
    or Median partials, voting consensus) so the only varying factor is
    *where* each mechanism is deployed — exactly Table III's axis.
    """
    abd_config = scheme_config(
        scheme,
        bra_name=config.partial_aggregator,
        bra_options=config.partial_options,
        cba_name=CBA_NAME,
        training=config.training_config(),
    )
    [(data, trainers)] = train_systems(
        config, systems=("abdhfl",), abdhfl_config=abd_config
    )
    history = trainers["abdhfl"].history
    measured = [r.model_messages for r in history]
    analytic = scheme_round_cost(data.hierarchy, scheme)
    desc = SCHEME_DESCRIPTIONS[scheme]
    return SchemeOutcome(
        scheme=scheme,
        partial_kind=desc["partial"].upper(),
        global_kind=desc["global"].upper(),
        final_accuracy=history[-1].test_accuracy,
        measured_model_messages_per_round=float(
            sum(measured) / max(1, len(measured))
        ),
        analytic_model_messages=analytic.cost.model_messages,
        analytic_scalar_messages=analytic.cost.scalar_messages,
    )
