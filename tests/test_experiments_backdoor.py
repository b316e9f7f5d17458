"""Tests for the backdoor (ASR) experiment."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.experiments import ExperimentConfig
from repro.experiments.backdoor import attack_success_rate
from repro.nn.model import MLP
from repro.scenario import run_scenario
from test_scenario_equivalence import tiny_spec

TINY = ExperimentConfig(
    n_levels=2,
    cluster_size=4,
    n_top=2,
    image_side=8,
    samples_per_client=60,
    n_test=200,
    n_rounds=3,
    hidden=(16,),
)


def run_backdoor(config, fraction):
    """The single cell of a TINY-scale ``backdoor`` scenario."""
    spec = tiny_spec(
        "backdoor", (fraction,), config=config, attacks=("backdoor",)
    )
    [cell] = run_scenario(spec).cells
    return cell


class TestAttackSuccessRate:
    def _model_and_data(self, rng):
        model = MLP(16, (8,), 10, rng)
        X = rng.random((40, 16))
        y = rng.integers(0, 10, 40)
        return model, Dataset(X, y, 10)

    def test_constant_target_predictor_has_full_asr(self, rng):
        model, data = self._model_and_data(rng)
        # force the model to always predict class 7 via a huge bias
        vec = model.get_flat()
        model.set_flat(vec)
        model.layers[-1].b[:] = 0.0
        model.layers[-1].b[7] = 1e6
        asr = attack_success_rate(model, model.get_flat(), data, target_label=7)
        assert asr == 1.0

    def test_never_target_predictor_has_zero_asr(self, rng):
        model, data = self._model_and_data(rng)
        model.layers[-1].b[:] = 0.0
        model.layers[-1].b[7] = -1e6
        asr = attack_success_rate(model, model.get_flat(), data, target_label=7)
        assert asr == 0.0

    def test_only_target_labels_rejected(self, rng):
        model, _ = self._model_and_data(rng)
        data = Dataset(rng.random((5, 16)), np.full(5, 7), 10)
        with pytest.raises(ValueError):
            attack_success_rate(model, model.get_flat(), data, target_label=7)


class TestRunBackdoor:
    def test_returns_both_outcomes(self):
        cell = run_backdoor(TINY, 0.25)
        assert cell.malicious_fraction == 0.25
        for score in (
            cell.abdhfl_accuracy,
            cell.abdhfl_asr,
            cell.vanilla_accuracy,
            cell.vanilla_asr,
        ):
            assert 0.0 <= score <= 1.0

    def test_no_adversaries_low_asr(self):
        cell = run_backdoor(replace(TINY, n_rounds=6), 0.0)
        # without backdoor clients the trigger should rarely hit the target
        assert cell.abdhfl_asr < 0.5
        assert cell.vanilla_asr < 0.5
