"""Backdoor-trigger evaluation (Table I's "Backdoor trigger" row).

A backdoor adversary stamps a trigger patch onto its training samples and
relabels them to a target class; the attack's currency is the
**attack success rate (ASR)** — the fraction of *triggered* test samples
(true label != target) the global model classifies as the target — while
clean accuracy should remain untouched (that stealth is what makes
backdoors dangerous).

:func:`run_backdoor_cell` — the single-cell primitive of the ``backdoor``
scenario kind (``specs/backdoor.toml``) — trains ABD-HFL and vanilla FL
with backdoor adversaries and reports (clean accuracy, ASR) for both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.dataset import Dataset
from repro.data.poisoning import backdoor_trigger
from repro.experiments.setup import (
    ExperimentConfig,
    ExperimentData,
    prepare_data,
    train_systems,
)
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.utils.seeding import seeded_generator

__all__ = [
    "TARGET_LABEL",
    "BackdoorCell",
    "attack_success_rate",
    "run_backdoor_cell",
]

TARGET_LABEL = 7
TRIGGER_VALUE = 1.5
N_TRIGGER_FEATURES = 4


@dataclass
class BackdoorCell:
    """Clean accuracy and attack success rate of both systems."""

    malicious_fraction: float
    abdhfl_accuracy: float
    abdhfl_asr: float
    vanilla_accuracy: float
    vanilla_asr: float


def _stamp(X: np.ndarray) -> np.ndarray:
    stamped = X.copy()
    stamped[:, :N_TRIGGER_FEATURES] = TRIGGER_VALUE
    return stamped


def attack_success_rate(
    model: Sequential,
    vector: np.ndarray,
    test_set: Dataset,
    target_label: int,
) -> float:
    """Fraction of triggered non-target test samples classified as target."""
    mask = test_set.y != target_label
    if not mask.any():
        raise ValueError("test set contains only the target label")
    model.set_flat(vector)
    preds = model.predict(_stamp(test_set.X[mask]))
    return float(np.mean(preds == target_label))


def _prepare_backdoor_data(config: ExperimentConfig) -> ExperimentData:
    """:func:`prepare_data` with every Byzantine shard stamped+relabelled."""
    data = prepare_data(config)
    rng = seeded_generator(config.seed + 1)
    for cid in data.byzantine:
        data.client_datasets[cid] = backdoor_trigger(
            data.client_datasets[cid],
            target_label=TARGET_LABEL,
            trigger_value=TRIGGER_VALUE,
            n_trigger_features=N_TRIGGER_FEATURES,
            rng=rng,
        )
    return data


def run_backdoor_cell(config: ExperimentConfig) -> BackdoorCell:
    """Train both systems with backdoor adversaries.

    The Byzantine clients' shards are stamped+relabelled; everything else
    follows the standard Table-V pipeline (Multi-Krum partials, voting
    consensus at the top for ABD-HFL; Multi-Krum server for vanilla).
    """
    # prepare_data must not poison: the trigger is stamped on afterwards.
    base = replace(config, attack="none")
    [(data, trainers)] = train_systems(base, prepare=_prepare_backdoor_data)
    scores: dict[str, tuple[float, float]] = {}
    for system, trainer in trainers.items():
        eval_model = data.model_template.clone()
        eval_model.set_flat(trainer.global_model)
        scores[system] = (
            accuracy(eval_model.predict(data.test_set.X), data.test_set.y),
            attack_success_rate(
                eval_model, trainer.global_model, data.test_set, TARGET_LABEL
            ),
        )
    return BackdoorCell(
        malicious_fraction=config.malicious_fraction,
        abdhfl_accuracy=scores["abdhfl"][0],
        abdhfl_asr=scores["abdhfl"][1],
        vanilla_accuracy=scores["vanilla"][0],
        vanilla_asr=scores["vanilla"][1],
    )
