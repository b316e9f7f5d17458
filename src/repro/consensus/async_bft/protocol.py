"""The drop-in ``ConsensusProtocol`` adapter over the ACS machinery.

Unlike the closed-form CBA protocols, :class:`ACSConsensus` actually
*runs* a protocol execution per ``agree()`` call: a fresh
:class:`~repro.sim.engine.Simulator` hosts one
:class:`~repro.consensus.async_bft.acs.ACSNode` per live member, wired
over a :class:`~repro.sim.network.Channel` (or a fault-injecting
:class:`~repro.faults.transport.FaultyChannel` when a
:class:`~repro.faults.plan.FaultPlan` is configured).  Member ``i``'s
ACS input is its own slot index — agreeing on *which proposals count*,
with the model payload billed on the value-carrying messages — and the
decided subset becomes the acceptance mask over the proposal stack.

The :class:`~repro.consensus.base.CostModel` is derived from
:class:`~repro.sim.network.NetworkStats`, i.e. from messages *actually
transmitted* (including retransmissions, duplicates injected by the
fault layer, and traffic addressed to crashed members), not from a
closed-form count.

Byzantine members run the honest state machines with a
consensus-level adversary transforming their outgoing broadcasts (see
:mod:`repro.consensus.async_bft.adversary`).  An equivocating member
commits, at most, to a single variant of its slot payload; when that
variant is not the member's true proposal the slot is excluded from the
numeric average (its agreed content is adversarial bytes the proposal
stack cannot represent) and counted in ``info["equivocated"]``.

Determinism: one draw from the caller's rng seeds latency, fault and
coin sub-streams via :class:`~repro.utils.seeding.SeedSequenceFactory`,
so ``agree()`` consumes exactly one rng state step no matter how many
messages fly, and repeated runs replay bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.check.invariants import (
    InvariantViolation,
    acs_subset_size,
    max_faulty,
    require_fault_bound,
)
from repro.consensus.async_bft.acs import ACSNode
from repro.consensus.async_bft.adversary import (
    ADVERSARIES,
    ConsensusAdversary,
    make_adversary,
)
from repro.consensus.async_bft.aba import make_common_coin
from repro.consensus.async_bft.runtime import Router
from repro.consensus.base import ConsensusProtocol, ConsensusResult, CostModel
from repro.faults.plan import FaultPlan
from repro.faults.transport import FaultyChannel
from repro.obs import trace
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import Channel
from repro.utils.seeding import SeedSequenceFactory

__all__ = ["ACSConsensus"]

#: Wire kinds that carry the (model-sized) proposal payload.
_MODEL_KINDS = ("acs.init", "acs.echo")
_SCALAR_KINDS = ("acs.ready", "acs.bval", "acs.aux", "acs.done")


class ACSConsensus(ConsensusProtocol):
    """Asynchronous common subset as a CBA mechanism.

    Parameters
    ----------
    latency:
        Per-message delay model (default: uniform 50–150 ms of sim-time).
    fault_plan:
        Optional fault scenario applied to consensus traffic; messages
        then go through bounded retransmission, so transient loss behaves
        like delay (the protocols' eventual-delivery assumption).
    adversary:
        Consensus-level behaviour of Byzantine-masked members, one of
        ``("none", "equivocate", "withhold", "crash_midway")``.
    adversary_options:
        Keyword options for the adversary constructor (e.g. ``victims``).
    retries:
        Per-message retransmission budget under a fault plan.  Liveness
        under lossy links needs enough retries that permanent loss is
        effectively impossible; the default raises the plan's budget to
        at least 8 (loss probability ``p`` survives as ``p**(retries+1)``).
    scalar_bytes:
        Billed size of votes/digests.
    max_events:
        Safety bound on simulator events per execution — a protocol
        stall (e.g. too many members partitioned for too long) raises
        instead of spinning.
    """

    name = "acs"
    # Silent members stay in the membership (a sender cannot know they
    # are gone): they are simply never registered on the router, so
    # traffic addressed to them is billed but undeliverable.
    handles_silent = True

    def __init__(
        self,
        latency: LatencyModel | None = None,
        fault_plan: FaultPlan | None = None,
        adversary: str = "none",
        adversary_options: dict[str, object] | None = None,
        retries: int | None = None,
        scalar_bytes: int = 64,
        max_events: int = 500_000,
    ) -> None:
        if adversary not in ADVERSARIES:
            raise ValueError(
                f"unknown consensus adversary {adversary!r}; "
                f"available: {ADVERSARIES}"
            )
        if max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if retries is not None and retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.latency = latency if latency is not None else UniformLatency(0.05, 0.15)
        self.fault_plan = fault_plan
        self.adversary = adversary
        self.adversary_options = dict(adversary_options or {})
        self.retries = retries
        self.scalar_bytes = int(scalar_bytes)
        self.max_events = int(max_events)

    # ------------------------------------------------------------------
    def _build_adversaries(
        self, byzantine_mask: np.ndarray, silent: np.ndarray, n: int
    ) -> dict[int, ConsensusAdversary]:
        adversaries: dict[int, ConsensusAdversary] = {}
        if self.adversary == "none":
            return adversaries
        for member in np.flatnonzero(byzantine_mask & ~silent):
            instance = make_adversary(self.adversary, n, **self.adversary_options)
            if instance is not None:
                adversaries[int(member)] = instance
        return adversaries

    def _agree(
        self,
        proposals: np.ndarray,
        weights: np.ndarray,
        byzantine_mask: np.ndarray,
        silent: np.ndarray,
        rng: np.random.Generator,
    ) -> ConsensusResult:
        n, d = proposals.shape
        f_actual = int((byzantine_mask | silent).sum())
        require_fault_bound(n, f_actual, protocol="ACS (Byzantine + silent)")
        f = max_faulty(n)

        # One rng draw seeds every sub-stream of this execution.
        seeds = SeedSequenceFactory(int(rng.integers(np.iinfo(np.int64).max)))
        latency_rng = seeds.generator("latency")
        coin = make_common_coin(seeds.seed("coin"))

        sim = Simulator()
        if self.fault_plan is not None:
            channel: Channel = FaultyChannel(
                sim, self.latency, latency_rng, self.fault_plan
            )
            retries = self.retries
            if retries is None:
                retries = max(self.fault_plan.max_retries, 8)
        else:
            channel = Channel(sim, self.latency, latency_rng)
            retries = self.retries
        router = Router(
            sim,
            channel,
            members=list(range(n)),
            value_bytes=d * 8,
            scalar_bytes=self.scalar_bytes,
            adversaries=self._build_adversaries(byzantine_mask, silent, n),
            retries=retries,
        )

        outputs_ready: list[int] = []
        nodes: dict[int, ACSNode] = {}
        for i in range(n):
            if silent[i]:
                continue
            nodes[i] = ACSNode(
                node_id=i,
                n=n,
                f=f,
                router=router,
                coin=coin,
                on_output=outputs_ready.append,
            )
        for i, node in nodes.items():
            node.propose(i)

        sim.run(max_events=self.max_events)

        honest = [
            i for i in range(n) if not silent[i] and not byzantine_mask[i]
        ]
        stalled = [i for i in honest if nodes[i].output is None]
        if len(sim.queue) > 0 or stalled:
            raise InvariantViolation(
                f"acs: execution stalled ({len(stalled)} honest node(s) "
                f"without output, {len(sim.queue)} pending events after "
                f"{sim.events_processed} processed); under heavy loss or "
                "long partitions raise retries/max_events or relax the "
                "fault plan"
            )

        reference = nodes[honest[0]].output
        assert reference is not None
        for i in honest[1:]:
            if nodes[i].output != reference:
                raise InvariantViolation(
                    f"acs agreement violated: node {i} output "
                    f"{nodes[i].output} != node {honest[0]} output {reference}"
                )
        subset = sorted(reference)
        # Every node waits for n - max_faulty(n) slots, whatever the number
        # of members actually marked faulty: with fewer than tolerated, a
        # late honest slot may legitimately be left out.
        if len(subset) < acs_subset_size(n, f):
            raise InvariantViolation(
                f"acs subset too small: |S|={len(subset)} < "
                f"{acs_subset_size(n, f)} (n={n}, f={f})"
            )

        # A slot whose agreed payload is not the proposer's true proposal
        # (an equivocator committed to a variant) carries adversarial
        # bytes the proposal stack cannot represent: exclude it from the
        # numeric average.
        accepted = np.zeros(n, dtype=bool)
        equivocated_slots: list[int] = []
        for j in subset:
            if reference[j] == j:
                accepted[j] = True
            else:
                equivocated_slots.append(j)
        equivocated = len(equivocated_slots)
        if not accepted.any():  # pragma: no cover - |S| >= 2f+1 > #byz
            raise InvariantViolation("acs: no usable slot in the agreed subset")

        w = weights[accepted]
        value = (w / w.sum()) @ proposals[accepted]

        stats = channel.stats
        aba_rounds = max(
            (node.abas[j].round for node in nodes.values() for j in range(n)),
            default=0,
        )
        cost = CostModel(
            model_messages=sum(stats.by_kind.get(k, 0) for k in _MODEL_KINDS),
            scalar_messages=sum(stats.by_kind.get(k, 0) for k in _SCALAR_KINDS),
            rounds=1 + aba_rounds,  # one RBC stage + the deepest ABA
            scalar_bytes=self.scalar_bytes,
        )
        info: dict[str, object] = {
            "subset": subset,
            "silent": int(silent.sum()),
            "equivocated": equivocated,
            # Vote evidence for the audit layer: which agreed slots
            # committed an equivocator's variant instead of the
            # proposer's true payload.
            "equivocated_slots": equivocated_slots,
            "aba_rounds": aba_rounds,
            "events": sim.events_processed,
            "sim_time": sim.now,
            "messages_by_kind": dict(stats.by_kind),
            "self_deliveries": router.self_deliveries,
        }
        if isinstance(channel, FaultyChannel):
            info["fault_stats"] = channel.fault_stats.as_dict()
        tr = trace.tracer()
        if tr is not None:
            self._trace_phases(tr, nodes, honest, sim.now)
        return ConsensusResult(
            value=value, accepted=accepted, cost=cost, info=info
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _trace_phases(
        tr: "trace.Tracer",
        nodes: dict[int, ACSNode],
        honest: list[int],
        end_time: float,
    ) -> None:
        """Per-phase spans on the execution's own sim-time axis.

        Category ``"consensus"`` keeps these off the trainer's Table-V
        compute/comm folding; the Chrome export shows the RBC wave, the
        ABA tail, and the per-instance delivery/decision windows.
        """
        rbc_end = 0.0
        aba_end = 0.0
        for i in honest:
            node = nodes[i]
            for j in range(node.n):
                delivered = node.brachas[j].delivered_time
                if delivered is not None and delivered > rbc_end:
                    rbc_end = delivered
                decided = node.abas[j].decided_time
                if decided is not None and decided > aba_end:
                    aba_end = decided
        tr.span("acs.phase.rbc", "consensus", 0.0, rbc_end)
        tr.span("acs.phase.aba", "consensus", 0.0, max(aba_end, rbc_end))
        tr.span("acs.phase.output", "consensus", 0.0, end_time)
        witness = nodes[honest[0]]
        for j in range(witness.n):
            delivered = witness.brachas[j].delivered_time
            if delivered is not None:
                tr.span(
                    "acs.rbc", "consensus", 0.0, delivered,
                    actor=witness.node_id, instance=j,
                )
            decided = witness.abas[j].decided_time
            if decided is not None:
                tr.span(
                    "acs.aba", "consensus", 0.0, decided,
                    actor=witness.node_id, instance=j,
                    bit=witness.decisions.get(j),
                )
