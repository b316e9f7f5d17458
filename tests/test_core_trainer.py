"""Integration tests for the ABD-HFL trainer (Algorithms 1-6)."""

import numpy as np
import pytest

from repro.attacks import SignFlip
from repro.core.config import ABDHFLConfig, LevelAggregation, TrainingConfig
from repro.consensus import get_consensus
from repro.core.trainer import ABDHFLTrainer
from repro.data.partition import iid_partition
from repro.data.poisoning import poison_type1
from repro.data.synthetic_mnist import SyntheticMNIST, make_synthetic_mnist
from repro.nn.model import MLP
from repro.topology.tree import assign_byzantine, build_ecsm
from repro.utils.seeding import SeedSequenceFactory


def small_setup(
    malicious_fraction=0.0,
    poison=False,
    seed=0,
    n_levels=3,
    cluster_size=2,
    n_top=2,
):
    """A small but full ABD-HFL instance: 2x2x2 tree, 8 clients."""
    seeds = SeedSequenceFactory(seed)
    hierarchy = build_ecsm(n_levels=n_levels, cluster_size=cluster_size, n_top=n_top)
    byz = assign_byzantine(
        hierarchy, malicious_fraction, seeds.generator("byz"), placement="prefix"
    )
    cfg = SyntheticMNIST(side=8, noise_sigma=0.15)
    n_clients = len(hierarchy.bottom_clients())
    train, test = make_synthetic_mnist(n_clients * 80, 300, seeds.generator("data"), cfg)
    partition = iid_partition(train, n_clients, seeds.generator("part"))
    datasets = {}
    for cid, shard in enumerate(partition.shards):
        if poison and cid in set(byz):
            datasets[cid] = poison_type1(shard)
        else:
            datasets[cid] = shard
    model = MLP(64, (16,), 10, seeds.generator("init"))
    return hierarchy, datasets, model, test


def default_config(**kwargs):
    defaults = dict(
        training=TrainingConfig(local_iterations=8, batch_size=16, learning_rate=0.8),
        default_intermediate=LevelAggregation("bra", "multikrum"),
        default_top=LevelAggregation("cba", "voting"),
    )
    defaults.update(kwargs)
    return ABDHFLConfig(**defaults)


class TestConstruction:
    def test_missing_dataset_rejected(self):
        hierarchy, datasets, model, test = small_setup()
        del datasets[0]
        with pytest.raises(ValueError):
            ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)

    def test_flag_level_clamped(self):
        """A flag level at/below the bottom is clamped to L-1 (App. E)."""
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(flag_level=5), test
        )
        assert trainer._flag_level == hierarchy.bottom_level - 1

    def test_validation_shards_default_split(self):
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
        assert trainer.validator.n_members == hierarchy.top_cluster.size

    def test_initial_model_is_template(self):
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
        np.testing.assert_array_equal(trainer.global_model, model.get_flat())


class TestTraining:
    def test_accuracy_improves(self):
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(), test, seed=1
        )
        history = trainer.run(12)
        assert history[-1].test_accuracy > history[0].test_accuracy
        assert history[-1].test_accuracy > 0.5

    def test_history_bookkeeping(self):
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
        trainer.run(3)
        assert [r.round_index for r in trainer.history] == [0, 1, 2]
        assert trainer.round_index == 3

    def test_eval_every_skips_evaluation(self):
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
        trainer.run(4, eval_every=2)
        accs = [r.test_accuracy for r in trainer.history]
        assert np.isnan(accs[1]) and np.isnan(accs[3])
        assert np.isfinite(accs[0]) and np.isfinite(accs[2])

    def test_deterministic(self):
        results = []
        for _ in range(2):
            hierarchy, datasets, model, test = small_setup(seed=9)
            trainer = ABDHFLTrainer(
                hierarchy, datasets, model, default_config(), test, seed=9
            )
            trainer.run(3)
            results.append(trainer.global_model.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_run_validation(self):
        hierarchy, datasets, model, test = small_setup()
        trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
        with pytest.raises(ValueError):
            trainer.run(0)


class TestRobustness:
    def test_poisoning_filtered(self):
        """One poisoned client per bottom cluster: Multi-Krum filters it."""
        hierarchy, datasets, model, test = small_setup(
            malicious_fraction=0.25, poison=True, cluster_size=4, n_top=2, n_levels=2
        )
        trainer = ABDHFLTrainer(
            hierarchy,
            datasets,
            model,
            default_config(),
            test,
            seed=2,
            top_byzantine_votes=0,
        )
        trainer.run(16)
        assert trainer.history[-1].test_accuracy > 0.5

    def test_model_attack_applied(self):
        """Sign-flip uploads from Byzantine members must hurt FedAvg-at-
        every-level but not the robust stack."""
        hierarchy, datasets, model, test = small_setup(
            malicious_fraction=0.25, cluster_size=4, n_top=2, n_levels=2
        )
        robust = ABDHFLTrainer(
            hierarchy,
            datasets,
            model,
            default_config(),
            test,
            seed=3,
            model_attack=SignFlip(scale=5.0),
        )
        robust.run(10)
        hierarchy2, datasets2, model2, test2 = small_setup(
            malicious_fraction=0.25, cluster_size=4, n_top=2, n_levels=2
        )
        fragile = ABDHFLTrainer(
            hierarchy2,
            datasets2,
            model2,
            ABDHFLConfig(
                training=TrainingConfig(local_iterations=3, batch_size=16, learning_rate=0.5),
                default_intermediate=LevelAggregation("bra", "fedavg"),
                default_top=LevelAggregation("bra", "fedavg"),
            ),
            test2,
            seed=3,
            model_attack=SignFlip(scale=5.0),
        )
        fragile.run(10)
        assert robust.history[-1].test_accuracy > fragile.history[-1].test_accuracy

    def test_quorum_below_one_still_trains(self):
        hierarchy, datasets, model, test = small_setup(cluster_size=4, n_top=2, n_levels=2)
        trainer = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(phi=0.75), test, seed=4
        )
        trainer.run(8)
        assert trainer.history[-1].test_accuracy > 0.4

    def test_top_excluded_recorded(self):
        hierarchy, datasets, model, test = small_setup(
            malicious_fraction=0.5, poison=True, cluster_size=4, n_top=4, n_levels=2
        )
        trainer = ABDHFLTrainer(
            hierarchy, datasets, model, default_config(), test, seed=5
        )
        trainer.run(6)
        assert any(r.top_excluded > 0 for r in trainer.history[2:])


class TestBRAAtTop:
    def test_scheme3_runs(self):
        hierarchy, datasets, model, test = small_setup()
        cfg = default_config(default_top=LevelAggregation("bra", "median"))
        trainer = ABDHFLTrainer(hierarchy, datasets, model, cfg, test, seed=6)
        trainer.run(8)
        assert trainer.history[-1].test_accuracy > 0.4
        # BRA at top records no consensus cost
        assert trainer.history[-1].consensus_cost.total_messages() == 0


class TestCBAAtIntermediate:
    def test_scheme2_runs(self):
        hierarchy, datasets, model, test = small_setup(cluster_size=4, n_top=2, n_levels=2)
        cfg = default_config(
            default_intermediate=LevelAggregation("cba", "approx_agreement", {"epsilon": 1e-3, "f": 0}),
            default_top=LevelAggregation("bra", "median"),
        )
        trainer = ABDHFLTrainer(hierarchy, datasets, model, cfg, test, seed=7)
        trainer.run(6)
        assert trainer.history[-1].test_accuracy > 0.4


class TestPipelineMode:
    def test_pipeline_mode_trains(self):
        hierarchy, datasets, model, test = small_setup()
        cfg = default_config(pipeline_mode=True, flag_level=1, global_arrival_iteration=1)
        trainer = ABDHFLTrainer(hierarchy, datasets, model, cfg, test, seed=8)
        history = trainer.run(12)
        assert history[-1].test_accuracy > 0.5

    def test_flag_level_zero_uses_global(self):
        hierarchy, datasets, model, test = small_setup()
        cfg = default_config(pipeline_mode=True, flag_level=0)
        trainer = ABDHFLTrainer(hierarchy, datasets, model, cfg, test, seed=8)
        trainer.run(4)
        # flag models staged for every bottom cluster, equal to the global
        for cluster in hierarchy.clusters_at(hierarchy.bottom_level):
            np.testing.assert_array_equal(
                trainer._flag_models[cluster.index], trainer.global_model
            )


class TestMakeConsensus:
    def test_all_protocols_instantiable(self):
        for name in ("voting", "committee", "pbft", "pos", "approx_agreement"):
            protocol = get_consensus(name)
            assert protocol is not None

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            get_consensus("raft")

    def test_validator_injected(self, tiny_model, tiny_test_set):
        from repro.consensus.validation import ModelValidator

        validator = ModelValidator(tiny_model, [tiny_test_set])
        protocol = get_consensus("voting", validator=None)
        assert protocol.validator is None
        protocol = get_consensus("voting", {}, validator=validator)
        assert protocol.validator is validator
