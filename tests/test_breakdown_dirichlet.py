"""Tests for breakdown curves and the Dirichlet experiment option."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.setup import ExperimentConfig, prepare_data
from repro.experiments import build_abdhfl_trainer
from repro.scenario import matrix_spec, run_scenario


def breakdown_curve(defence, attack, fractions, **estimation):
    """The cells of a ``breakdown_curve`` scenario for one pair."""
    spec = matrix_spec(
        kind="breakdown_curve",
        defences=(defence,),
        attacks=(attack,),
        fractions=fractions,
        **estimation,
    )
    return run_scenario(spec).cells


class TestBreakdownCurve:
    def test_monotone_degradation_for_fedavg_scaling(self):
        cells = breakdown_curve(
            "fedavg", "scaling", fractions=(0.0, 0.2, 0.4), n_trials=4
        )
        gaps = [c.gap for c in cells]
        # the linear rule degrades as the adversary share grows
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 50

    def test_median_stays_bounded_below_half(self):
        fractions = (0.0, 0.2, 0.4, 0.45)
        median = breakdown_curve("median", "scaling", fractions=fractions, n_trials=4)
        fedavg = breakdown_curve("fedavg", "scaling", fractions=fractions, n_trials=4)
        # the median degrades gracefully (its 1/2 breakdown point is never
        # crossed) while the linear rule explodes: order-of-magnitude gap
        assert median[-1].gap < 20
        assert fedavg[-1].gap > 10 * median[-1].gap

    def test_fraction_zero_uses_clean_gap(self):
        cells = breakdown_curve("fedavg", "scaling", fractions=(0.0,), n_trials=4)
        assert cells[0].gap < 3.0  # no attack applied at fraction 0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            breakdown_curve("median", "ipm", fractions=(0.6,))


TINY = ExperimentConfig(
    n_levels=2,
    cluster_size=4,
    n_top=2,
    image_side=8,
    samples_per_client=100,
    n_test=200,
    n_rounds=3,
    hidden=(16,),
)


class TestDirichletExperiments:
    def test_partition_kind_dirichlet(self):
        cfg = replace(TINY, iid=False, noniid_kind="dirichlet", dirichlet_alpha=2.0)
        data = prepare_data(cfg)
        # clients hold different label mixes (skew exists)
        label_sets = [
            tuple(np.unique(ds.y)) for ds in data.client_datasets.values()
        ]
        assert len(set(label_sets)) > 1

    def test_dirichlet_trains(self):
        cfg = replace(
            TINY, iid=False, noniid_kind="dirichlet", dirichlet_alpha=2.0,
            n_rounds=4,
        )
        data = prepare_data(cfg)
        trainer = build_abdhfl_trainer(cfg, data)
        trainer.run(cfg.n_rounds)
        assert np.isfinite(trainer.history[-1].test_accuracy)

    def test_unknown_kind_rejected(self):
        cfg = replace(TINY, iid=False, noniid_kind="zipf")
        with pytest.raises(ValueError):
            prepare_data(cfg)

    def test_too_skewed_alpha_rejected_when_empty(self):
        cfg = replace(
            TINY,
            iid=False,
            noniid_kind="dirichlet",
            dirichlet_alpha=0.005,
            samples_per_client=10,
        )
        # extremely small alpha + tiny shards: either it happens to fill
        # every client or it raises the documented error — both acceptable,
        # but an empty shard must never silently pass through.
        try:
            data = prepare_data(cfg)
        except ValueError as err:
            assert "empty client shard" in str(err)
        else:
            assert all(len(ds) > 0 for ds in data.client_datasets.values())
