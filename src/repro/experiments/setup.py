"""Shared experiment construction.

:class:`ExperimentConfig` carries every scale knob; :func:`prepare_data`
builds the dataset/partition/poisoning stage; the two ``build_*`` helpers
assemble trainers so ABD-HFL and vanilla FL always train on *identical*
shards from *identical* initial weights — the comparison the paper makes.
:func:`train_systems` is the one trainer-run loop every trainer-based
artefact (Table V, Figure 3, Theorem 2, schemes, backdoor) is built on.

The default configuration is the documented reduced scale (DESIGN.md);
``ExperimentConfig.paper_scale()`` restores the full Appendix D settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.attacks.base import ModelAttack
from repro.core.config import ABDHFLConfig, LevelAggregation, TrainingConfig
from repro.core.trainer import ABDHFLTrainer
from repro.core.vanilla import VanillaFLTrainer
from repro.data.dataset import Dataset
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    noniid_label_shards,
)
from repro.data.poisoning import apply_poisoning
from repro.data.synthetic_mnist import SyntheticMNIST, make_synthetic_mnist
from repro.faults.plan import FaultPlan
from repro.nn.model import MLP
from repro.topology.tree import Hierarchy, assign_byzantine, build_ecsm
from repro.utils.seeding import SeedSequenceFactory, iter_run_seeds

__all__ = [
    "SYSTEMS",
    "ExperimentConfig",
    "ExperimentData",
    "prepare_data",
    "build_abdhfl_trainer",
    "build_vanilla_trainer",
    "train_systems",
]

#: The systems every comparison trains, in execution order.
SYSTEMS = ("abdhfl", "vanilla")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a Table-V-style experiment.

    Defaults are the reduced scale; shapes (who wins, where the collapse
    happens) are preserved — see DESIGN.md.
    """

    # topology (Appendix D: 3 levels, cluster size 4, 4 top nodes, 64 clients)
    n_levels: int = 3
    cluster_size: int = 4
    n_top: int = 4

    # data
    image_side: int = 12
    samples_per_client: int = 240
    n_test: int = 1_000
    iid: bool = True
    # non-IID flavour: "shards" (paper's 2-label extreme case) or
    # "dirichlet" (standard intermediate skew with `dirichlet_alpha`)
    noniid_kind: str = "shards"
    dirichlet_alpha: float = 0.5

    # model / training
    hidden: tuple[int, ...] = (32,)
    n_rounds: int = 30
    local_iterations: int = 5
    batch_size: int = 64
    learning_rate: float = 0.3

    # threat model
    attack: str = "type1"  # data poisoning: "type1" | "type2" | "none"
    malicious_fraction: float = 0.0
    placement: str = "prefix"  # paper orders clients by id

    # aggregation (paper: Multi-Krum for IID, Median for non-IID)
    partial_aggregator: str = "multikrum"
    partial_options: dict = field(default_factory=lambda: {"byzantine_fraction": 0.25})
    top_consensus: str = "voting"
    top_options: dict = field(default_factory=dict)

    # vanilla baseline uses the same BRA rule as the partial levels
    seed: int = 2024

    @property
    def n_clients(self) -> int:
        return self.n_top * self.cluster_size ** (self.n_levels - 1)

    @property
    def n_train(self) -> int:
        return self.n_clients * self.samples_per_client

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            local_iterations=self.local_iterations,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
        )

    def for_distribution(self, iid: bool) -> "ExperimentConfig":
        """Switch data distribution with the paper's matching aggregator."""
        if iid:
            return replace(
                self,
                iid=True,
                partial_aggregator="multikrum",
                partial_options={"byzantine_fraction": 0.25},
            )
        return replace(self, iid=False, partial_aggregator="median", partial_options={})

    @classmethod
    def paper_scale(cls, **overrides: object) -> "ExperimentConfig":
        """The full Appendix D configuration (28x28, 200 rounds, 937/client)."""
        base = cls(
            image_side=28,
            samples_per_client=937,
            n_test=10_000,
            n_rounds=200,
            hidden=(128, 64),
            learning_rate=0.1,
        )
        return replace(base, **overrides)  # type: ignore[arg-type]


@dataclass
class ExperimentData:
    """Everything both trainers share."""

    hierarchy: Hierarchy
    client_datasets: dict[int, Dataset]
    test_set: Dataset
    byzantine: list[int]
    model_template: MLP
    seed: int


def prepare_data(config: ExperimentConfig) -> ExperimentData:
    """Build topology, shards (with poisoning applied) and the model.

    The non-IID partition receives the honest-client set so its label
    assignment can guarantee the paper's "honest nodes jointly cover all
    labels" property.
    """
    seeds = SeedSequenceFactory(config.seed)

    hierarchy = build_ecsm(
        n_levels=config.n_levels,
        cluster_size=config.cluster_size,
        n_top=config.n_top,
    )
    byzantine = assign_byzantine(
        hierarchy,
        config.malicious_fraction,
        seeds.generator("placement"),
        placement=config.placement,
    )

    gen_cfg = SyntheticMNIST(side=config.image_side)
    train, test = make_synthetic_mnist(
        n_train=config.n_train,
        n_test=config.n_test,
        rng=seeds.generator("data"),
        config=gen_cfg,
    )

    clients = hierarchy.bottom_clients()
    honest = [c for c in clients if c not in set(byzantine)]
    if config.iid:
        partition = iid_partition(train, len(clients), seeds.generator("partition"))
    elif config.noniid_kind == "shards":
        partition = noniid_label_shards(
            train,
            len(clients),
            seeds.generator("partition"),
            labels_per_client=2,
            honest_clients=honest,
        )
    elif config.noniid_kind == "dirichlet":
        partition = dirichlet_partition(
            train,
            len(clients),
            seeds.generator("partition"),
            alpha=config.dirichlet_alpha,
        )
        if (partition.sizes() == 0).any():
            raise ValueError(
                "dirichlet partition produced an empty client shard; "
                "increase dirichlet_alpha or samples_per_client"
            )
    else:
        raise ValueError(f"unknown noniid_kind {config.noniid_kind!r}")

    poison_rng = seeds.generator("poison")
    client_datasets: dict[int, Dataset] = {}
    byz_set = set(byzantine)
    for cid, shard in zip(sorted(clients), partition.shards):
        if cid in byz_set and config.attack != "none":
            client_datasets[cid] = apply_poisoning(shard, config.attack, poison_rng)
        else:
            client_datasets[cid] = shard

    model = MLP(
        in_dim=gen_cfg.n_features,
        hidden=config.hidden,
        n_classes=10,
        rng=seeds.generator("init"),
    )
    return ExperimentData(
        hierarchy=hierarchy,
        client_datasets=client_datasets,
        test_set=test,
        byzantine=byzantine,
        model_template=model,
        seed=config.seed,
    )


def build_abdhfl_trainer(
    config: ExperimentConfig,
    data: ExperimentData | None = None,
    model_attack: ModelAttack | None = None,
    abdhfl_config: ABDHFLConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> ABDHFLTrainer:
    """Assemble the ABD-HFL trainer (scheme 1 by default, per Appendix D)."""
    data = data or prepare_data(config)
    if abdhfl_config is None:
        abdhfl_config = ABDHFLConfig(
            training=config.training_config(),
            default_intermediate=LevelAggregation(
                "bra", config.partial_aggregator, config.partial_options
            ),
            default_top=LevelAggregation("cba", config.top_consensus, config.top_options),
        )
    # Appendix D threat model: data poisoners follow the protocol honestly,
    # and exactly one top-level node is considered protocol-malicious.
    return ABDHFLTrainer(
        hierarchy=data.hierarchy,
        client_datasets=data.client_datasets,
        model_template=data.model_template,
        config=abdhfl_config,
        test_set=data.test_set,
        seed=data.seed,
        model_attack=model_attack,
        protocol_byzantine=model_attack is not None,
        top_byzantine_votes=1,
        fault_plan=fault_plan,
    )


def build_vanilla_trainer(
    config: ExperimentConfig,
    data: ExperimentData | None = None,
    model_attack: ModelAttack | None = None,
) -> VanillaFLTrainer:
    """Assemble the vanilla-FL baseline with the same BRA rule and data."""
    data = data or prepare_data(config)
    return VanillaFLTrainer(
        client_datasets=data.client_datasets,
        model_template=data.model_template,
        config=config.training_config(),
        test_set=data.test_set,
        aggregator=config.partial_aggregator,
        aggregator_options=config.partial_options,
        byzantine=data.byzantine,
        model_attack=model_attack,
        seed=data.seed,
    )


def train_systems(
    config: ExperimentConfig,
    n_runs: int | None = None,
    systems: tuple[str, ...] = SYSTEMS,
    abdhfl_config: ABDHFLConfig | None = None,
    prepare: Callable[[ExperimentConfig], ExperimentData] = prepare_data,
) -> Iterator[tuple[ExperimentData, dict[str, ABDHFLTrainer | VanillaFLTrainer]]]:
    """The one trainer-run loop: for each run seed, ``prepare`` the shared
    data, then build and run every requested system on it in turn.

    Yields ``(data, trainers)`` per run, ``trainers`` keyed by system
    name; each trainer carries its per-round ``history`` and final
    ``global_model``.  ``n_runs=None`` trains once on ``config.seed``
    itself (the single-run artefacts: Theorem 2, schemes, backdoor); an
    integer derives that many sibling seeds (:func:`iter_run_seeds` — the
    Table V / Figure 3 repeats).
    """
    run_seeds = (
        (config.seed,) if n_runs is None else iter_run_seeds(config.seed, n_runs)
    )
    for run_seed in run_seeds:
        run_cfg = replace(config, seed=run_seed)
        data = prepare(run_cfg)
        trainers: dict[str, ABDHFLTrainer | VanillaFLTrainer] = {}
        for system in systems:
            trainer = (
                build_abdhfl_trainer(run_cfg, data, abdhfl_config=abdhfl_config)
                if system == "abdhfl"
                else build_vanilla_trainer(run_cfg, data)
            )
            trainer.run(run_cfg.n_rounds)
            trainers[system] = trainer
        yield data, trainers
