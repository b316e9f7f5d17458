"""The ledger's four trainer workloads and their set-up.

Each workload is one closed-loop ABD-HFL training run: rounds run back to
back in one process, all inputs are generated from the seed, and the
program under test only ever sees those generated inputs.  The four were
sized (ISSUE 11) so that each one is bound by a *different* layer:

* ``fleet512`` — local SGD on many small clients (dispatch-bound);
* ``fleet512-pool2`` — the same run through the 2-worker spawn pool, so
  one-off spawn cost and steady state separate;
* ``paper64-d109k`` — paper topology with a 109 386-dim model, where
  Multi-Krum on 4 x 109 386 stacks dominates (aggregation-bound);
* ``acs196`` — asynchronous common subset at every level, where the
  pure-Python event loop dominates (consensus-bound).

``repro`` is imported inside :func:`build` — not at module import — so
the child process can time the import as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, ContextManager

import numpy as np

__all__ = [
    "Workload",
    "WORKLOADS",
    "smoke",
    "import_program",
    "build",
    "mark_acs_byzantine",
    "digest",
]

#: Shared by every workload (ISSUE 11, "Load model").
NOISE_SIGMA = 0.15
#: ISSUE 11 sized this at 500; at 500 the sampling error of one accuracy
#: reading (2 points) is a whole round of progress, which alone moves
#: rounds-to-target by +-1 from seed to seed.
N_TEST = 2000
#: The common initial model theta_G^(0) is a constant of the workload, like
#: its architecture, and is NOT drawn from ``--seed``: the draw carries no
#: wall-clock signal but is the largest source of seed-to-seed variation
#: in rounds-to-target and final accuracy (IQR 18 % -> 8 % on fleet512),
#: which the benchmark contract bounds.  Data, partition, batch order,
#: attack, quorum, consensus and link faults all still follow the seed.
INIT_SEED = 11


@dataclass(frozen=True)
class Workload:
    """One benchmark input: topology, model, threat model and run length."""

    name: str
    why: str
    n_levels: int
    cluster_size: int
    n_top: int
    image_side: int
    hidden: tuple[int, ...]
    samples_per_device: int
    local_iterations: int
    batch_size: int
    scheme: int
    learning_rate: float
    rounds: int  # timed rounds; one warm-up round precedes them
    #: Test accuracy that stops the time-to-target clock.  Each target sits
    #: mid-way between two rounds' accuracies, so that the round it is
    #: reached in is the same for (nearly) every seed and the metric moves
    #: with wall time, not with which side of a round a seed fell on.
    target: float
    workers: int = 1
    attack: str | None = None
    byzantine: str = "none"  # "none" | "prefix25" | "acs"
    cba: str = "voting"
    pipeline_mode: bool = False
    #: Name of the plain single-worker run of the same task: its digest
    #: must equal this workload's, and ``pool.speedup`` is taken over it.
    baseline: str | None = None

    @property
    def n_devices(self) -> int:
        return self.n_top * self.cluster_size ** (self.n_levels - 1)


_FLEET512 = Workload(
    name="fleet512",
    why="512 small clients, 2410-dim MLP, serial: local SGD is ~83% of the "
    "round and dispatch-bound, aggregation and consensus are not",
    n_levels=4,
    cluster_size=4,
    n_top=8,
    image_side=8,
    hidden=(32,),
    samples_per_device=60,
    local_iterations=5,
    batch_size=32,
    scheme=1,
    learning_rate=0.3,
    rounds=20,
    target=0.245,  # timed round 4 on 20 of 20 seeds
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _FLEET512,
        replace(
            _FLEET512,
            name="fleet512-pool2",
            why="fleet512 through the 2-worker spawn pool + ParameterSlab: "
            "separates one-off spawn (setup_s) from steady-state rounds/s; "
            "digest must equal fleet512",
            workers=2,
            baseline="fleet512",
        ),
        Workload(
            name="paper64-d109k",
            why="paper topology (64 devices), 109386-dim MLP, alie on 25% "
            "prefix Byzantine, pipeline mode: multikrum on 4x109k stacks is "
            "~half the round, SGD is gemm-bound",
            n_levels=3,
            cluster_size=4,
            n_top=4,
            image_side=28,
            hidden=(128, 64),
            samples_per_device=120,
            local_iterations=2,
            batch_size=64,
            scheme=1,
            # Appendix D's rate for this model; at 0.3 the alie + pipeline
            # run oscillates (0.73 -> 0.63 -> 0.93) and rounds-to-target
            # varies by 40 % across seeds.
            learning_rate=0.1,
            rounds=12,
            target=0.52,  # timed round 5 on 20 of 20 seeds
            attack="alie",
            byzantine="prefix25",
            pipeline_mode=True,
        ),
        Workload(
            name="acs196",
            why="196 devices, scheme 4 with ACS at every level (33 executions"
            "/round), equivocating members, 5% link drops: ~90% of the round "
            "is pure-Python event handling inside agree()",
            n_levels=3,
            cluster_size=7,
            n_top=4,
            image_side=8,
            hidden=(32,),
            samples_per_device=40,
            local_iterations=5,
            batch_size=16,
            scheme=4,
            learning_rate=0.3,
            rounds=8,
            target=0.20,  # timed round 3 on 37 of 40 seeds
            attack="alie",
            byzantine="acs",
            cba="acs",
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same code path at self-test size: <= 16 devices, 2 rounds."""
    acs = workload.cba == "acs"
    return replace(
        workload,
        n_levels=2 if acs else 3,
        cluster_size=4 if acs else 2,
        n_top=4,
        samples_per_device=min(workload.samples_per_device, 40),
        rounds=2,
        target=0.0,
    )


def mark_acs_byzantine(hierarchy: Any) -> list[int]:
    """The ``acs196`` Byzantine set: every cluster at every level holds
    exactly ``max_faulty(size)`` Byzantine members.

    Levels are filled top-down; in each cluster the *last* members are
    marked until the quota is met.  A last member never sits in the level
    above (only a cluster's first member, its leader, does), so filling a
    level cannot overfill one already done.  On the 4 x 7 x 7 topology
    that is 1 top member, 2 members of every other cluster, 56 devices.

    ISSUE 11 specified a lighter set (42 devices, one or two per bottom
    cluster).  ``ACSConsensus`` raises unless ``|S| >= n - f_actual``,
    but asynchrony only guarantees ``|S| >= n - max_faulty(n)``: with
    fewer than ``max_faulty`` Byzantine members one late honest slot
    kills the round (seed 14 did).  At exactly ``max_faulty`` the check
    is the protocol's own guarantee, and no round can fail that way.
    """
    from repro.check.invariants import max_faulty

    for info in hierarchy.nodes.values():
        info.byzantine = False
    for level in range(hierarchy.n_levels):
        for cluster in hierarchy.clusters_at(level):
            quota = max_faulty(cluster.size)
            for device in reversed(cluster.members):
                if sum(hierarchy.is_byzantine(m) for m in cluster.members) >= quota:
                    break
                hierarchy.nodes[device].byzantine = True
    for level in range(hierarchy.n_levels):
        for cluster in hierarchy.clusters_at(level):
            held = sum(hierarchy.is_byzantine(m) for m in cluster.members)
            if held != max_faulty(cluster.size):
                raise ValueError(
                    f"cluster ({level},{cluster.index}) holds {held} Byzantine "
                    f"of {cluster.size}, not max_faulty={max_faulty(cluster.size)}"
                )
    return hierarchy.byzantine_devices()


def import_program() -> None:
    """Import every ``repro`` module a workload touches (``setup.import``;
    also what the throw-away cache-warming subprocess runs)."""
    import repro.attacks  # noqa: F401
    import repro.core.schemes  # noqa: F401
    import repro.core.trainer  # noqa: F401
    import repro.data.partition  # noqa: F401
    import repro.data.synthetic_mnist  # noqa: F401


def build(
    workload: Workload,
    seed: int,
    phase: Callable[[str], ContextManager[Any]],
) -> Any:
    """Generate the inputs from ``seed`` and construct the trainer.

    ``phase(name)`` brackets each set-up step (the ledger's
    ``topology.build`` / ``data.generate`` / ``data.partition`` /
    ``trainer.init`` spans).
    """
    from repro.attacks import get_attack
    from repro.core.config import TrainingConfig
    from repro.core.schemes import scheme_config
    from repro.core.trainer import ABDHFLTrainer
    from repro.data.partition import iid_partition
    from repro.data.synthetic_mnist import SyntheticMNIST, make_synthetic_mnist
    from repro.faults.plan import FaultPlan
    from repro.nn.model import MLP
    from repro.topology.tree import assign_byzantine, build_ecsm
    from repro.utils.seeding import SeedSequenceFactory

    seeds = SeedSequenceFactory(seed)
    with phase("topology.build"):
        hierarchy = build_ecsm(
            n_levels=workload.n_levels,
            cluster_size=workload.cluster_size,
            n_top=workload.n_top,
        )
        if workload.byzantine == "prefix25":
            assign_byzantine(
                hierarchy, 0.25, seeds.generator("placement"), placement="prefix"
            )
        elif workload.byzantine == "acs":
            mark_acs_byzantine(hierarchy)
    n_devices = len(hierarchy.bottom_clients())
    with phase("data.generate"):
        train, test = make_synthetic_mnist(
            n_devices * workload.samples_per_device,
            N_TEST,
            seeds.generator("data"),
            SyntheticMNIST(side=workload.image_side, noise_sigma=NOISE_SIGMA),
        )
    with phase("data.partition"):
        partition = iid_partition(train, n_devices, seeds.generator("partition"))
        datasets = dict(zip(sorted(hierarchy.bottom_clients()), partition.shards))
    with phase("trainer.init"):
        model = MLP(
            workload.image_side**2,
            workload.hidden,
            10,
            SeedSequenceFactory(INIT_SEED).generator("init"),
        )
        cba_options: dict[str, object] = {}
        if workload.cba == "acs":
            cba_options = {
                "adversary": "equivocate",
                "fault_plan": FaultPlan.uniform(
                    drop_probability=0.05, seed=seed + 2
                ),
            }
        config = scheme_config(
            workload.scheme,
            cba_name=workload.cba,
            cba_options=cba_options,
            training=TrainingConfig(
                local_iterations=workload.local_iterations,
                batch_size=workload.batch_size,
                learning_rate=workload.learning_rate,
            ),
            pipeline_mode=workload.pipeline_mode,
            # Always explicit so a stray REPRO_WORKERS cannot change the path.
            workers=workload.workers,
        )
        attacked = workload.attack is not None
        trainer = ABDHFLTrainer(
            hierarchy,
            datasets,
            model,
            config,
            test,
            seed=seed,
            model_attack=get_attack(workload.attack) if attacked else None,
            protocol_byzantine=attacked,
        )
    return trainer


def digest(global_model: np.ndarray, records: list[Any]) -> str:
    """sha256 over the global model and the per-round accuracy/loss stream
    (the same recipe as ``bench_pipeline.py``, so digests are comparable)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(global_model, dtype=np.float64).tobytes())
    for record in records:
        h.update(np.float64(record.test_accuracy).tobytes())
        h.update(np.float64(record.test_loss).tobytes())
    return h.hexdigest()
