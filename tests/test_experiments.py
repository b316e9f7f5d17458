"""Tests for the experiment harness (reduced-scale)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    build_abdhfl_trainer,
    build_vanilla_trainer,
    prepare_data,
    gradient_gap,
    train_systems,
)
from repro.experiments.table5 import Table5Cell, format_table5, run_cell
from repro.scenario import ToleranceSpec, matrix_spec, run_scenario
from test_scenario_equivalence import tiny_spec


TINY = ExperimentConfig(
    n_levels=2,
    cluster_size=4,
    n_top=2,
    image_side=8,
    samples_per_client=50,
    n_test=200,
    n_rounds=4,
    hidden=(16,),
)


class TestExperimentConfig:
    def test_paper_dimensions(self):
        cfg = ExperimentConfig()
        assert cfg.n_clients == 64  # 4 * 4^2

    def test_paper_scale(self):
        cfg = ExperimentConfig.paper_scale()
        assert cfg.image_side == 28
        assert cfg.samples_per_client == 937
        assert cfg.n_rounds == 200
        assert cfg.n_test == 10_000

    def test_for_distribution_switches_aggregator(self):
        iid = ExperimentConfig().for_distribution(True)
        noniid = ExperimentConfig().for_distribution(False)
        assert iid.partial_aggregator == "multikrum"
        assert noniid.partial_aggregator == "median"


class TestPrepareData:
    def test_shards_for_all_clients(self):
        data = prepare_data(replace(TINY, malicious_fraction=0.25))
        assert set(data.client_datasets) == set(data.hierarchy.bottom_clients())
        assert len(data.byzantine) == 2  # 25% of 8

    def test_byzantine_shards_poisoned(self):
        data = prepare_data(
            replace(TINY, malicious_fraction=0.25, attack="type1")
        )
        for cid in data.byzantine:
            assert np.all(data.client_datasets[cid].y == 9)
        honest = set(data.hierarchy.bottom_clients()) - set(data.byzantine)
        for cid in sorted(honest):
            assert len(np.unique(data.client_datasets[cid].y)) > 1

    def test_noniid_honest_cover(self):
        cfg = replace(TINY, iid=False, malicious_fraction=0.25, samples_per_client=60)
        data = prepare_data(cfg)
        honest = set(data.hierarchy.bottom_clients()) - set(data.byzantine)
        covered = set()
        for cid in sorted(honest):
            covered.update(np.unique(data.client_datasets[cid].y).tolist())
        assert covered == set(range(10))

    def test_deterministic(self):
        d1 = prepare_data(TINY)
        d2 = prepare_data(TINY)
        np.testing.assert_array_equal(
            d1.client_datasets[0].X, d2.client_datasets[0].X
        )
        np.testing.assert_array_equal(
            d1.model_template.get_flat(), d2.model_template.get_flat()
        )


class TestBuilders:
    def test_both_trainers_share_data(self):
        data = prepare_data(TINY)
        abd = build_abdhfl_trainer(TINY, data)
        van = build_vanilla_trainer(TINY, data)
        np.testing.assert_array_equal(abd.global_model, van.global_model)
        assert set(abd.trainers) == set(van.trainers)

    def test_train_systems_runs_requested_systems_per_seed(self):
        runs = list(train_systems(TINY, n_runs=2))
        assert len(runs) == 2
        for data, trainers in runs:
            assert list(trainers) == ["abdhfl", "vanilla"]
            assert all(len(t.history) == TINY.n_rounds for t in trainers.values())
        # sibling seeds: the two runs draw different data
        assert runs[0][0].seed != runs[1][0].seed
        [(data, trainers)] = train_systems(TINY, systems=("abdhfl",))
        assert list(trainers) == ["abdhfl"] and data.seed == TINY.seed

    def test_run_cell(self):
        cell = run_cell(TINY, n_runs=1)
        assert isinstance(cell, Table5Cell)
        assert 0.0 <= cell.abdhfl_accuracy <= 1.0
        assert 0.0 <= cell.vanilla_accuracy <= 1.0

    def test_format_table5(self):
        cells = [
            Table5Cell(True, "type1", 0.0, 0.9, 0.89),
            Table5Cell(True, "type1", 0.5, 0.88, 0.10),
        ]
        rendered = format_table5(cells)
        assert "ABD-HFL" in rendered and "Vanilla FL" in rendered
        assert "50.0%" in rendered and "0.0%" in rendered


class TestFigure3:
    def test_curve_structure(self):
        spec = tiny_spec("convergence", (0.0,), config=TINY, n_runs=2)
        [cell] = run_scenario(spec).cells
        abd, van = cell.abdhfl, cell.vanilla
        assert abd.mean.shape == (TINY.n_rounds,)
        assert abd.runs.shape == (2, TINY.n_rounds)
        assert np.all(abd.ci_half_width >= 0)
        assert abd.label == "ABD-HFL" and van.label == "Vanilla FL"

    def test_n_runs_validation(self):
        with pytest.raises(ValueError, match="n_runs"):
            run_scenario(tiny_spec("convergence", (0.0,), config=TINY, n_runs=0))


class TestTheorem2Experiment:
    def test_bound_and_points(self):
        result = run_scenario(
            tiny_spec(
                "tolerance_sweep",
                (0.0, 0.5),
                config=replace(TINY, n_levels=2, n_rounds=2),
                tolerance=ToleranceSpec(gamma1=0.25, gamma2=0.25),
            )
        )
        points = result.cells
        # 2 levels -> bottom level 1 -> 1 - 0.75*0.75 = 0.4375
        assert "bound 43.7500%" in result.table
        assert len(points) == 2
        assert points[0].below_bound and not points[1].below_bound


class TestSchemeComparison:
    def test_all_schemes_run(self):
        outcomes = run_scenario(
            tiny_spec(
                "scheme_comparison",
                (0.25,),
                config=replace(TINY, n_rounds=2),
                schemes=(1, 2, 3, 4),
            )
        ).cells
        assert [o.scheme for o in outcomes] == [1, 2, 3, 4]
        for o in outcomes:
            assert 0.0 <= o.final_accuracy <= 1.0
            assert o.analytic_model_messages > 0

    def test_cost_ordering_matches_table4(self):
        outcomes = run_scenario(
            tiny_spec(
                "scheme_comparison",
                (0.25,),
                config=replace(TINY, n_rounds=2),
                schemes=(1, 2, 3, 4),
            )
        ).cells
        by_scheme = {o.scheme: o.analytic_model_messages for o in outcomes}
        assert by_scheme[3] == min(by_scheme.values())
        assert by_scheme[4] == max(by_scheme.values())


class TestDefenceMatrix:
    def test_gap_metric_clean(self):
        # With no attack, averaging n honest updates leaves a gap of about
        # sqrt(dim / n) noise units (dim=64, n=20 -> ~1.8).
        gap = gradient_gap("fedavg", "none", byzantine_fraction=0.0)
        assert gap < 3.0
        # and it is far below the single-update error (~sqrt(dim) = 8)
        assert gap < 0.5 * np.sqrt(64)

    def test_fedavg_broken_by_scaling(self):
        broken = gradient_gap("fedavg", "scaling", byzantine_fraction=0.25)
        robust = gradient_gap("median", "scaling", byzantine_fraction=0.25)
        assert broken > 10 * robust

    def test_matrix_shape(self):
        cells = run_scenario(
            matrix_spec(
                defences=("fedavg", "median"),
                attacks=("sign_flip", "ipm"),
                fractions=(0.25,),
                n_trials=2,
            )
        ).cells
        assert len(cells) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            gradient_gap("median", "ipm", byzantine_fraction=1.0)
