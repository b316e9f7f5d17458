"""Round-synchronous execution of the ABD-HFL algorithm (Algorithm 1).

One :meth:`ABDHFLTrainer.run_round` performs local training, partial
aggregation bottom-to-top with the configured per-level BRA/CBA, global
aggregation at the leaderless top, dissemination, and evaluation.  The
asynchronous *timing* of the same protocol is studied separately in
:mod:`repro.pipeline`; the paper's accuracy results are round-structured,
which is what this trainer reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.aggregation.base import Aggregator, get_aggregator
from repro.aggregation.matrix import ParameterMatrix, incremental_from
from repro.attacks.base import ModelAttack
from repro.check import sanitize
from repro.consensus import (
    ConsensusProtocol,
    ModelValidator,
    get_consensus,
)
from repro.consensus.base import CostModel
from repro.core.config import ABDHFLConfig
from repro.core.correction import AdaptiveCorrection, CorrectionPolicy
from repro.core.local import GlobalArrival, LocalTrainer
from repro.data.dataset import Dataset
from repro.faults.plan import FaultPlan, FaultStats
from repro.faults.rounds import RoundFaultInjector
from repro.nn.losses import SoftmaxCrossEntropy
from repro.obs import audit, trace
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.core.pool import LocalFleet
from repro.parallel import resolve_workers
from repro.topology.cluster import Cluster
from repro.topology.tree import Hierarchy
from repro.utils.seeding import SeedSequenceFactory

__all__ = ["RoundRecord", "ABDHFLTrainer"]


@dataclass
class RoundRecord:
    """Per-round outcome."""

    round_index: int
    test_accuracy: float
    test_loss: float
    mean_local_loss: float
    top_excluded: int = 0
    consensus_cost: CostModel = field(default_factory=CostModel)
    model_messages: int = 0


class ABDHFLTrainer:
    """Executes ABD-HFL over a hierarchy of local trainers.

    Parameters
    ----------
    hierarchy:
        The tree (with Byzantine flags already assigned).
    client_datasets:
        Per-device training shards keyed by bottom device id — already
        poisoned for data-poisoning adversaries.
    model_template:
        Architecture prototype; every device receives a clone initialised
        at the common ``theta_G^(0)`` (the template's current weights).
    config:
        Protocol configuration.
    test_set:
        Global evaluation data.
    seed:
        Root seed for every stochastic component of this trainer.
    validation_shards:
        Per-top-node validation shards for voting-style consensus;
        ``None`` splits the test set evenly across the top cluster,
        matching Appendix D.
    model_attack:
        Optional model-update attack applied to Byzantine uploads at the
        bottom level.  ``None`` is the paper's data-poisoning threat
        model where Byzantine devices follow the protocol.
    protocol_byzantine:
        Whether Byzantine devices holding consensus roles vote/behave
        adversarially inside CBA.  The paper's data-poisoning threat model
        (Appendix D) keeps protocol behaviour honest, so this defaults to
        False there; model-attack experiments set it True.
    top_byzantine_votes:
        Force exactly this many top-cluster members to vote adversarially
        regardless of their data-poisoning status — the paper "considers
        one of the four top-level nodes malicious" independent of the
        bottom-level fraction.  ``None`` leaves the mask to
        ``protocol_byzantine`` alone.  Actually-Byzantine devices are
        preferred when picking the forced voters.
    correction:
        Correction-factor policy for pipeline mode.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` interpreted in
        *round* units: crashed devices contribute nothing while down
        (crashed leaders are replaced through the Assumption-3 re-election
        machinery and rejoin on recovery), and uploads are lost with the
        plan's per-link drop probability after bounded retransmission.
        Leaders that collect fewer than the φ-quorum time out and
        aggregate the partial quorum; a cluster losing *every*
        contribution falls back to redistributing the current global
        model.  ``None`` (or an all-zero plan) leaves every code path
        bit-identical to the fault-free trainer; injected faults and
        recovery actions are accounted in :attr:`fault_stats`.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        client_datasets: dict[int, Dataset],
        model_template: Sequential,
        config: ABDHFLConfig,
        test_set: Dataset,
        seed: int = 0,
        validation_shards: list[Dataset] | None = None,
        model_attack: ModelAttack | None = None,
        protocol_byzantine: bool = False,
        top_byzantine_votes: int | None = None,
        correction: CorrectionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if top_byzantine_votes is not None and top_byzantine_votes < 0:
            raise ValueError(
                f"top_byzantine_votes must be non-negative, got {top_byzantine_votes}"
            )
        self.hierarchy = hierarchy
        self.config = config
        self.test_set = test_set
        self.model_attack = model_attack
        self.protocol_byzantine = protocol_byzantine
        self.top_byzantine_votes = top_byzantine_votes
        self.correction = correction or AdaptiveCorrection()
        self._seeds = SeedSequenceFactory(seed)
        self._fault = (
            RoundFaultInjector(fault_plan, hierarchy)
            if fault_plan is not None
            else None
        )
        self.fault_stats = self._fault.stats if self._fault else FaultStats()

        bottom = hierarchy.bottom_clients()
        missing = [d for d in bottom if d not in client_datasets]
        if missing:
            raise ValueError(f"datasets missing for devices {missing[:8]}...")
        # The flag level must sit above the bottom; a generic config may
        # carry a deeper value than a shallow hierarchy admits, so clamp
        # to the deepest valid choice (Appendix E: l_F in {0, ..., L-1}).
        self._flag_level = min(config.flag_level, hierarchy.bottom_level - 1)

        self.trainers: dict[int, LocalTrainer] = {}
        for device in bottom:
            model = model_template.clone()
            self.trainers[device] = LocalTrainer(
                device_id=device,
                dataset=client_datasets[device],
                model=model,
                config=config.training,
                rng=self._seeds.generator("client", device),
            )

        self._eval_model = model_template.clone()
        self._eval_loss = SoftmaxCrossEntropy()
        self.global_model = model_template.get_flat()
        self._quorum_rng = self._seeds.generator("quorum")
        self._consensus_rng = self._seeds.generator("consensus")

        # Validation shards for CBA (Appendix D: the test set is split
        # evenly over the top-level nodes).
        n_top = hierarchy.top_cluster.size
        if validation_shards is None:
            idx_chunks = np.array_split(np.arange(len(test_set)), n_top)
            validation_shards = [test_set.subset(c) for c in idx_chunks]
        if len(validation_shards) < n_top:
            raise ValueError(
                f"{len(validation_shards)} validation shards for {n_top} top nodes"
            )
        self.validator = ModelValidator(model_template.clone(), validation_shards)

        # Instantiate one aggregator/protocol object per level so stateful
        # mechanisms (PoS stake, stateful clipping) persist across rounds.
        self._level_bra: dict[int, Aggregator] = {}
        self._level_cba: dict[int, ConsensusProtocol] = {}
        for level in range(hierarchy.n_levels):
            spec = config.aggregation_for(level)
            if spec.kind == "bra":
                self._level_bra[level] = get_aggregator(spec.name, **dict(spec.options))
            else:
                self._level_cba[level] = get_consensus(
                    spec.name, dict(spec.options), validator=self.validator
                )

        # Local training runs through the fleet: in-process at
        # workers == 1, otherwise in a spawn pool created lazily on the
        # first round and rebuilt after membership churn.
        self.workers = resolve_workers(config.workers)
        self._fleet = LocalFleet(self.trainers, self._eval_model, self.workers)

        # Cross-round kernel reuse: last round's ParameterMatrix per
        # aggregation site, keyed by (level, cluster) and guarded by the
        # exact contributor-id tuple.  ``incremental_from`` is
        # bit-identical to a fresh build, so this is a pure perf cache.
        self._matrix_cache: dict[
            tuple[int, int], tuple[tuple[int, ...], ParameterMatrix]
        ] = {}

        # Flag model per bottom cluster (pipeline mode).
        self._flag_models: dict[int, np.ndarray] = {}
        self._total_samples = sum(t.n_samples for t in self.trainers.values())
        self.history: list[RoundRecord] = []
        self.round_index = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, n_rounds: int, eval_every: int = 1) -> list[RoundRecord]:
        """Run ``n_rounds`` global rounds; returns the appended records."""
        if n_rounds <= 0:
            raise ValueError(f"n_rounds must be positive, got {n_rounds}")
        start = len(self.history)
        for _ in range(n_rounds):
            self.run_round(evaluate=(self.round_index % eval_every == 0))
        return self.history[start:]

    def run_round(self, evaluate: bool = True) -> RoundRecord:
        """Execute one global round (Algorithm 1)."""
        with sanitize.provenance(round_index=self.round_index):
            return self._run_round(evaluate)

    def _run_round(self, evaluate: bool) -> RoundRecord:
        tr = trace.tracer()
        au = audit.auditor()
        t = float(self.round_index)
        if self._fault is not None:
            self._fault.begin_round(self.round_index)
        if au is not None:
            # Ground truth *after* this round's crash/recovery transitions
            # so the silent set matches what the aggregation pipeline sees.
            self._audit_round_truth(au)
        if tr is not None:
            tr.instant("trainer.local_training", "round", t, round=self.round_index)
        local_models, local_losses = self._local_training()
        if self.model_attack is not None:
            self._apply_model_attack(local_models)
        if tr is not None:
            tr.instant(
                "trainer.partial_aggregation", "round", t, round=self.round_index
            )
        partials, weights, model_messages = self._partial_aggregation(local_models)
        if tr is not None:
            tr.instant(
                "trainer.global_aggregation", "round", t, round=self.round_index
            )
        record = self._global_aggregation(partials, weights)
        record.model_messages += model_messages
        record.mean_local_loss = float(np.mean(local_losses)) if local_losses else 0.0
        self._disseminate(partials)
        if evaluate:
            record.test_accuracy, record.test_loss = self._evaluate()
        else:
            record.test_accuracy = float("nan")
            record.test_loss = float("nan")
        self.history.append(record)
        if tr is not None:
            self._trace_round(tr, record)
        if au is not None and evaluate:
            au.record(
                "metric",
                step=self.round_index,
                name="test_accuracy",
                value=record.test_accuracy,
            )
        self.round_index += 1
        return record

    def _audit_round_truth(self, au: "audit.Auditor") -> None:
        """Record the round's injected-fault ground truth (auditing on):
        which bottom devices are actually Byzantine and which are
        crash-silent right now."""
        bottom = self.hierarchy.bottom_clients()
        byzantine = [int(d) for d in bottom if self.hierarchy.is_byzantine(d)]
        crashed = (
            [int(d) for d in bottom if self._fault.is_crashed(d)]
            if self._fault is not None
            else []
        )
        au.record(
            "ground_truth",
            step=self.round_index,
            n=len(bottom),
            members=[int(d) for d in bottom],
            byzantine=byzantine,
            silent=crashed,
        )

    def _trace_round(self, tr: "trace.Tracer", record: RoundRecord) -> None:
        """Per-round trace instant + metrics snapshot (tracing active)."""
        t = float(record.round_index)
        tr.instant(
            "trainer.round",
            "round",
            t,
            round=record.round_index,
            model_messages=record.model_messages,
            top_excluded=record.top_excluded,
            mean_local_loss=record.mean_local_loss,
            test_accuracy=record.test_accuracy,
        )
        m = tr.metrics
        m.counter("trainer.rounds").inc()
        m.counter("trainer.model_messages").inc(record.model_messages)
        m.counter("trainer.top_excluded").inc(record.top_excluded)
        if math.isfinite(record.test_accuracy):
            m.gauge("trainer.test_accuracy").set(record.test_accuracy)
        if self._fault is not None:
            m.gauge("faults.timeouts_fired").set(self.fault_stats.timeouts_fired)
            m.gauge("faults.quorums_degraded").set(
                self.fault_stats.quorums_degraded
            )
            m.gauge("faults.retries").set(self.fault_stats.retries)
        tr.snapshot_metrics(t)

    def sync_membership(
        self, new_datasets: dict[int, Dataset] | None = None
    ) -> tuple[list[int], list[int]]:
        """Reconcile local trainers with the (possibly churned) hierarchy.

        After :mod:`repro.topology.dynamics` applied joins/leaves to the
        hierarchy (Assumption 3), call this with the new devices' shards:
        departed devices' trainers are dropped, newcomers get a fresh
        trainer starting from the current global model.  Returns
        ``(joined, departed)`` device id lists.
        """
        new_datasets = new_datasets or {}
        bottom = set(self.hierarchy.bottom_clients())
        departed = sorted(d for d in self.trainers if d not in bottom)
        for device in departed:
            del self.trainers[device]
        joined = sorted(bottom - set(self.trainers))
        missing = [d for d in joined if d not in new_datasets]
        if missing:
            raise ValueError(f"datasets missing for joined devices {missing}")
        for device in joined:
            self.trainers[device] = LocalTrainer(
                device_id=device,
                dataset=new_datasets[device],
                model=self._eval_model.clone(),
                config=self.config.training,
                rng=self._seeds.generator("client", device),
            )
        self._total_samples = sum(t.n_samples for t in self.trainers.values())
        # Flag models may reference clusters whose membership changed;
        # fall back to the global model for the next round.
        self._flag_models.clear()
        # Stale contributor sets: every cached kernel matrix is suspect.
        self._matrix_cache.clear()
        # Worker replicas hold the old device set; rebuild on next round.
        self.close()
        return joined, departed

    def close(self) -> None:
        """Shut down the parallel training pool, if one was created.

        Safe to call at any time; the next parallel round recreates the
        pool from the current membership.
        """
        self._fleet.close()

    def __enter__(self) -> "ABDHFLTrainer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: never raise at GC/shutdown
        try:
            self.close()
        except Exception:
            pass

    def evaluate_vector(self, vector: np.ndarray) -> float:
        """Test accuracy of an arbitrary parameter vector."""
        self._eval_model.set_flat(vector)
        return accuracy(self._eval_model.predict(self.test_set.X), self.test_set.y)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _local_training(self) -> tuple[dict[int, np.ndarray], list[float]]:
        """Algorithm 2 for every live bottom device, in (cluster, member)
        order; the fleet decides where each device's SGD runs."""
        work: list[tuple[int, np.ndarray, GlobalArrival | None]] = []
        for cluster in self.hierarchy.clusters_at(self.hierarchy.bottom_level):
            start = self._start_vector_for(cluster)
            arrival = self._global_arrival_for(cluster)
            for device in cluster.members:
                if self._fault is not None and self._fault.is_crashed(device):
                    continue  # crash-stopped: no compute, no upload
                work.append((device, start, arrival))
        return self._fleet.train(work)

    def _start_vector_for(self, cluster: Cluster) -> np.ndarray:
        if not self.config.pipeline_mode or self.round_index == 0:
            return self.global_model
        return self._flag_models.get(cluster.index, self.global_model)

    def _global_arrival_for(self, cluster: Cluster) -> GlobalArrival | None:
        """In pipeline mode the previous round's global model lands
        mid-training and is merged via Eq. 1."""
        if not self.config.pipeline_mode or self.round_index == 0:
            return None
        latency = self.config.global_arrival_iteration / max(
            1, self.config.training.local_iterations
        )
        flag_fraction = self._flag_data_fraction(cluster)
        alpha = self.correction.alpha(latency, flag_fraction)
        return GlobalArrival(
            iteration=self.config.global_arrival_iteration,
            vector=self.global_model,
            alpha=alpha,
        )

    def _flag_data_fraction(self, bottom_cluster: Cluster) -> float:
        """Data share of the flag-level subtree above ``bottom_cluster``."""
        flag_cluster = self._ancestor_cluster(bottom_cluster, self._flag_level)
        devices = self.hierarchy.descendants(flag_cluster)
        subtree = sum(self.trainers[d].n_samples for d in devices)
        return min(1.0, subtree / max(1, self._total_samples))

    def _ancestor_cluster(self, cluster: Cluster, target_level: int) -> Cluster:
        """Walk leader links upward from ``cluster`` to ``target_level``."""
        current = cluster
        while current.level > target_level:
            if current.level == 0:
                break
            leader = current.leader
            if leader is None:
                raise ValueError(
                    f"cluster ({current.level},{current.index}) lacks a leader"
                )
            current = self.hierarchy.cluster_of(leader, current.level - 1)
        return current

    def _apply_model_attack(self, local_models: dict[int, np.ndarray]) -> None:
        """Replace Byzantine uploads with attack vectors (omniscient model).

        The attack observes the round's honest uploads globally — the
        strongest standard threat model — and every Byzantine device
        uploads its assigned malicious vector.
        """
        byz = [d for d in local_models if self.hierarchy.is_byzantine(d)]
        if not byz:
            return
        honest = [d for d in local_models if not self.hierarchy.is_byzantine(d)]
        if not honest:
            return  # nothing to imitate; poisoned updates stand as-is
        honest_stack = np.stack([local_models[d] for d in honest])
        rng = self._seeds.generator("attack", self.round_index)
        malicious = self.model_attack(honest_stack, len(byz), rng)
        for vector, device in zip(malicious, byz):
            local_models[device] = vector

    def _partial_aggregation(
        self, local_models: dict[int, np.ndarray]
    ) -> tuple[dict[tuple[int, int], np.ndarray], dict[tuple[int, int], float], int]:
        """Algorithms 3/4 across all intermediate levels; returns
        (partial models, data weights, model-message count)."""
        hierarchy = self.hierarchy
        bottom = hierarchy.bottom_level
        partials: dict[tuple[int, int], np.ndarray] = {}
        weights: dict[tuple[int, int], float] = {}
        messages = 0
        for level in range(bottom, 0, -1):
            for cluster in hierarchy.clusters_at(level):
                contribs: list[np.ndarray] = []
                w: list[float] = []
                byz_flags: list[bool] = []
                ids: list[int] = []
                lost_weight = 0.0
                leader = (
                    cluster.leader if cluster.leader is not None else cluster.members[0]
                )
                for device in cluster.members:
                    if level == bottom:
                        vector = local_models.get(device)
                        weight = float(self.trainers[device].n_samples)
                    else:
                        child = hierarchy.led_cluster(device, level + 1)
                        if child is None:
                            raise AssertionError(
                                f"device {device} at level {level} leads no "
                                f"cluster at level {level + 1}"
                            )
                        vector = partials[(level + 1, child.index)]
                        weight = weights[(level + 1, child.index)]
                    present = vector is not None
                    if present and self._fault is not None:
                        if self._fault.is_crashed(device):
                            present = False  # headless child: nothing arrives
                        elif device != leader and not self._fault.transmission_ok(
                            device, leader, self.round_index
                        ):
                            present = False  # upload lost despite retries
                    if present:
                        contribs.append(vector)
                        w.append(weight)
                        byz_flags.append(
                            self.protocol_byzantine and hierarchy.is_byzantine(device)
                        )
                        ids.append(device)
                    else:
                        lost_weight += weight
                key = (level, cluster.index)
                if self._fault is not None and lost_weight > 0:
                    # Algorithm 4: the leader waits for the quorum, then
                    # times out and proceeds with the partial quorum.
                    quorum = max(1, math.ceil(self.config.phi * cluster.size))
                    if len(contribs) < quorum:
                        self.fault_stats.timeouts_fired += 1
                        self.fault_stats.quorums_degraded += 1
                if not contribs:
                    # Total loss: the leader redistributes the current
                    # global model so the subtree keeps a valid partial.
                    partials[key] = self.global_model
                    weights[key] = lost_weight
                    continue
                stack = np.stack(contribs)
                w_arr = np.asarray(w)
                stack, w_arr, byz_arr, ids_arr = self._apply_quorum(
                    stack, w_arr, np.asarray(byz_flags), np.asarray(ids)
                )
                actx = audit.context(
                    members=ids_arr, level=level, cluster=cluster.index
                )
                with sanitize.provenance(node_id=leader), actx:
                    value = self._aggregate_level(
                        level,
                        stack,
                        w_arr,
                        byz_arr,
                        site=key,
                        ids=tuple(int(i) for i in ids_arr),
                    )
                partials[key] = value
                weights[key] = float(w_arr.sum())
                # Uploads to the leader + broadcast of the partial model
                # back to members for storage (Algorithm 3, line 8).
                k = stack.shape[0]
                messages += (k - 1) + (cluster.size - 1)
        return partials, weights, messages

    def _apply_quorum(
        self, stack: np.ndarray, w: np.ndarray, byz: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Keep the first ``ceil(phi * k)`` uploads in random arrival order
        (Algorithm 4's quorum-or-timeout collection).  ``ids`` carries the
        contributors' device ids through the same permutation so audit
        records attribute rows to the right devices."""
        phi = self.config.phi
        k = stack.shape[0]
        quorum = max(1, math.ceil(phi * k))
        if quorum >= k:
            return stack, w, byz, ids
        order = self._quorum_rng.permutation(k)[:quorum]
        return stack[order], w[order], byz[order], ids[order]

    def _aggregate_level(
        self,
        level: int,
        stack: np.ndarray,
        w: np.ndarray,
        byz: np.ndarray,
        site: tuple[int, int] | None = None,
        ids: tuple[int, ...] = (),
    ) -> np.ndarray:
        # Stack + validate once; every rule/protocol below shares the
        # matrix's cached geometry kernels.  With a site key, last
        # round's matrix for the same contributor set seeds an
        # incremental build (bit-identical to a fresh one), so device
        # vectors that kept their bits keep their kernel rows too.
        if site is not None:
            cached = self._matrix_cache.get(site)
            prev = cached[1] if cached is not None and cached[0] == ids else None
            matrix = incremental_from(prev, stack, w)
            self._matrix_cache[site] = (ids, matrix)
        else:
            matrix = ParameterMatrix(stack, w)
        spec = self.config.aggregation_for(level)
        if spec.kind == "bra":
            aggregator = self._level_bra[level]
            return aggregator(matrix)
        protocol = self._level_cba[level]
        result = protocol.agree(
            matrix, byzantine_mask=byz, rng=self._consensus_rng
        )
        return result.value

    def _global_aggregation(
        self,
        partials: dict[tuple[int, int], np.ndarray],
        weights: dict[tuple[int, int], float],
    ) -> RoundRecord:
        """Algorithm 6 at the top cluster."""
        hierarchy = self.hierarchy
        top = hierarchy.top_cluster
        proposals: list[np.ndarray] = []
        w: list[float] = []
        byz: list[bool] = []
        for device in top.members:
            child = hierarchy.led_cluster(device, 1)
            if child is None:
                raise AssertionError(f"top node {device} leads no level-1 cluster")
            proposals.append(partials[(1, child.index)])
            w.append(weights[(1, child.index)])
            byz.append(self.protocol_byzantine and hierarchy.is_byzantine(device))
        stack = np.stack(proposals)
        w_arr = np.asarray(w)
        byz_arr = np.asarray(byz)
        if self.top_byzantine_votes is not None:
            byz_arr = self._forced_top_mask(top.members)

        spec = self.config.aggregation_for(0)
        record = RoundRecord(
            round_index=self.round_index,
            test_accuracy=float("nan"),
            test_loss=float("nan"),
            mean_local_loss=float("nan"),
        )
        # Crash-stopped top members are silent.  Every CBA protocol
        # honours ``silent_mask`` (natively or via the base-class
        # live-member reduction); BRA rules simply never receive the
        # proposal.
        silent = None
        if self._fault is not None:
            mask = np.array([self._fault.is_crashed(m) for m in top.members])
            if mask.all():
                record.top_excluded = int(mask.sum())
                return record  # no live top node: keep the previous model
            if mask.any():
                silent = mask
        if spec.kind == "bra":
            members = list(top.members)
            if silent is not None:
                stack, w_arr = stack[~silent], w_arr[~silent]
                members = [m for m, gone in zip(members, silent) if not gone]
            aggregator = self._level_bra[0]
            with audit.context(members=members, level=0, cluster=top.index):
                self.global_model = aggregator(ParameterMatrix(stack, w_arr))
            n = stack.shape[0]
            record.model_messages += 2 * (n - 1)  # collect + broadcast
        else:
            protocol = self._level_cba[0]
            with audit.context(members=top.members, level=0, cluster=top.index):
                result = protocol.agree(
                    ParameterMatrix(stack, w_arr),
                    byzantine_mask=byz_arr,
                    silent_mask=silent,
                    rng=self._consensus_rng,
                )
            self.global_model = result.value
            record.top_excluded = result.n_excluded
            record.consensus_cost = result.cost
            record.model_messages += result.cost.model_messages
        return record

    def _forced_top_mask(self, members: list[int]) -> np.ndarray:
        """Adversarial-voter mask with exactly ``top_byzantine_votes`` True
        entries, preferring devices that are actually Byzantine."""
        n = len(members)
        k = min(self.top_byzantine_votes or 0, n)
        mask = np.zeros(n, dtype=bool)
        if k == 0:
            return mask
        order = sorted(
            range(n),
            key=lambda i: (not self.hierarchy.is_byzantine(members[i]), members[i]),
        )
        mask[order[:k]] = True
        return mask

    def _disseminate(self, partials: dict[tuple[int, int], np.ndarray]) -> None:
        """Algorithm 5: stage flag models for every bottom cluster."""
        if not self.config.pipeline_mode:
            return
        flag_level = self._flag_level
        for cluster in self.hierarchy.clusters_at(self.hierarchy.bottom_level):
            if flag_level == 0:
                self._flag_models[cluster.index] = self.global_model
            else:
                ancestor = self._ancestor_cluster(cluster, flag_level)
                self._flag_models[cluster.index] = partials[
                    (flag_level, ancestor.index)
                ]

    def _evaluate(self) -> tuple[float, float]:
        self._eval_model.set_flat(self.global_model)
        logits = self._eval_model.forward(self.test_set.X, train=False)
        loss = self._eval_loss.forward(logits, self.test_set.y)
        acc = accuracy(np.argmax(logits, axis=-1), self.test_set.y)
        return acc, loss
