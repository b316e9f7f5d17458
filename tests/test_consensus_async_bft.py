"""Asynchronous BFT consensus: Bracha RBC, Mo14 ABA, ACS, adversaries.

Property-style seeded sweeps: every protocol guarantee (validity,
agreement, totality, subset size) is checked across seeds and adversary
types at ``f < n/3``, always through the real simulator-driven message
fabric — no shortcut evaluation.
"""

import numpy as np
import pytest

from repro.check.invariants import (
    InvariantViolation,
    acs_subset_size,
    echo_quorum,
    max_faulty,
    quorum_size,
    ready_support,
)
from repro.consensus import ACSConsensus, PBFTConsensus, get_consensus
from repro.consensus.async_bft import (
    ACSNode,
    BrachaRBC,
    CrashMidBroadcast,
    Equivocator,
    Mo14ABA,
    Packet,
    Router,
    SelectiveSender,
    make_adversary,
    make_common_coin,
)
from repro.faults.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Channel
from repro.utils.seeding import seeded_generator


# ---------------------------------------------------------------------------
# harness


def make_fabric(n, seed=0, adversaries=None, plan=None, retries=None):
    """Simulator + channel + router over ``n`` members."""
    sim = Simulator()
    rng = seeded_generator(seed)
    latency = UniformLatency(0.05, 0.15)
    if plan is not None:
        from repro.faults.transport import FaultyChannel

        channel = FaultyChannel(sim, latency, rng, plan)
    else:
        channel = Channel(sim, latency, rng)
    router = Router(
        sim,
        channel,
        members=list(range(n)),
        value_bytes=256,
        adversaries=adversaries or {},
        retries=retries,
    )
    return sim, channel, router


class RBCHarness:
    """One BrachaRBC instance per live member, single sender slot."""

    def __init__(self, n, f, router, sender=0, live=None):
        self.delivered = {}
        self.nodes = {}
        for i in live if live is not None else range(n):
            node = BrachaRBC(
                owner=i,
                sender=sender,
                n=n,
                f=f,
                router=router,
                instance=sender,
                on_deliver=self._make_cb(i),
            )
            router.register(i, node.receive)
            self.nodes[i] = node

    def _make_cb(self, i):
        def cb(instance, value):
            self.delivered[i] = value

        return cb


class ABAHarness:
    """One Mo14ABA instance per member, one shared coin."""

    def __init__(self, n, f, router, coin):
        self.decided = {}
        self.nodes = {}
        for i in range(n):
            node = Mo14ABA(
                owner=i,
                n=n,
                f=f,
                router=router,
                instance=0,
                coin=coin,
                on_decide=self._make_cb(i),
            )
            router.register(i, node.receive)
            self.nodes[i] = node

    def _make_cb(self, i):
        def cb(instance, bit):
            self.decided[i] = bit

        return cb


# ---------------------------------------------------------------------------
# invariants helpers


class TestThresholds:
    def test_echo_quorum_majority_intersection(self):
        # any two echo quorums intersect in > f members
        for n in range(1, 30):
            f = max_faulty(n)
            q = echo_quorum(n, f)
            assert 2 * q - n > f

    def test_ready_support_exceeds_faulty(self):
        assert ready_support(2) == 3

    def test_acs_subset_size_bounds(self):
        assert acs_subset_size(7, 2) == 5
        with pytest.raises(InvariantViolation):
            acs_subset_size(3, 3)

    def test_echo_quorum_rejects_bad_bound(self):
        with pytest.raises(InvariantViolation):
            echo_quorum(3, 1)


# ---------------------------------------------------------------------------
# Bracha RBC


class TestBrachaRBC:
    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validity_honest_sender(self, n, seed):
        """Every honest node delivers an honest sender's value."""
        f = max_faulty(n)
        sim, _, router = make_fabric(n, seed=seed)
        h = RBCHarness(n, f, router)
        h.nodes[0].start(("payload", seed))
        sim.run()
        assert h.delivered == {i: ("payload", seed) for i in range(n)}

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_under_equivocation(self, seed):
        """An equivocating sender never splits honest deliveries."""
        n, f = 7, 2
        adv = {0: Equivocator()}
        sim, _, router = make_fabric(n, seed=seed, adversaries=adv)
        h = RBCHarness(n, f, router)
        h.nodes[0].start("real")
        sim.run()
        values = {v for i, v in h.delivered.items() if i != 0}
        assert len(values) <= 1  # agreement: all-or-nothing on one variant

    @pytest.mark.parametrize("seed", range(6))
    def test_totality_under_selective_delivery(self, seed):
        """If any honest node delivers, every honest node delivers."""
        n, f = 7, 2
        adv = {0: SelectiveSender(victims=range(0, n, 2))}
        sim, _, router = make_fabric(n, seed=seed, adversaries=adv)
        h = RBCHarness(n, f, router)
        h.nodes[0].start("v")
        sim.run()
        honest = [i for i in range(n) if i != 0]
        delivered = [i for i in honest if i in h.delivered]
        assert delivered == honest or delivered == []

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_mid_broadcast_all_or_nothing(self, seed):
        n, f = 7, 2
        adv = {0: CrashMidBroadcast(after_sends=3)}
        sim, _, router = make_fabric(n, seed=seed, adversaries=adv)
        h = RBCHarness(n, f, router)
        h.nodes[0].start("v")
        sim.run()
        honest = [i for i in range(n) if i != 0]
        delivered = [i for i in honest if i in h.delivered]
        assert delivered == honest or delivered == []

    def test_non_sender_cannot_start(self):
        n, f = 4, 1
        _, _, router = make_fabric(n)
        h = RBCHarness(n, f, router)
        with pytest.raises(ValueError):
            h.nodes[1].start("hijack")

    def test_duplicates_are_idempotent(self):
        """Fault-layer duplication cannot double-count a sender."""
        n, f = 4, 1
        plan = FaultPlan.uniform(duplicate_probability=0.5, seed=9)
        sim, _, router = make_fabric(n, seed=3, plan=plan)
        h = RBCHarness(n, f, router)
        h.nodes[0].start("v")
        sim.run()
        assert all(h.delivered[i] == "v" for i in range(n))


# ---------------------------------------------------------------------------
# Mo14 ABA


class TestMo14ABA:
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validity_unanimous_input(self, n, bit, seed):
        """All-honest unanimous input decides that input."""
        f = max_faulty(n)
        sim, _, router = make_fabric(n, seed=seed)
        h = ABAHarness(n, f, router, make_common_coin(seed))
        for node in h.nodes.values():
            node.propose(bit)
        sim.run()
        assert h.decided == {i: bit for i in range(n)}

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_mixed_input(self, seed):
        """Mixed inputs decide a single common bit, an actual input."""
        n, f = 7, 2
        sim, _, router = make_fabric(n, seed=seed)
        h = ABAHarness(n, f, router, make_common_coin(seed))
        for i, node in h.nodes.items():
            node.propose(i % 2)
        sim.run()
        assert set(h.decided) == set(range(n))
        assert len(set(h.decided.values())) == 1
        assert next(iter(h.decided.values())) in (0, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_under_equivocation(self, seed):
        """A bit-flipping Byzantine member cannot split decisions."""
        n, f = 7, 2
        adv = {6: Equivocator()}
        sim, _, router = make_fabric(n, seed=seed, adversaries=adv)
        h = ABAHarness(n, f, router, make_common_coin(seed))
        for i, node in h.nodes.items():
            node.propose(i % 2)
        sim.run()
        honest_bits = {h.decided[i] for i in range(n - 1)}
        assert len(honest_bits) == 1

    def test_event_queue_drains(self):
        """The DONE gadget halts every node: no events left behind."""
        n, f = 7, 2
        sim, _, router = make_fabric(n, seed=4)
        h = ABAHarness(n, f, router, make_common_coin(4))
        for i, node in h.nodes.items():
            node.propose(i % 2)
        sim.run()
        assert len(sim.queue) == 0
        assert all(node.halted for node in h.nodes.values())

    def test_rejects_non_bit_input(self):
        n, f = 4, 1
        _, _, router = make_fabric(n)
        h = ABAHarness(n, f, router, make_common_coin(0))
        with pytest.raises(ValueError):
            h.nodes[0].propose(2)

    def test_ignores_non_bit_messages(self):
        """Byzantine junk values can never reach any threshold."""
        n, f = 4, 1
        sim, _, router = make_fabric(n)
        h = ABAHarness(n, f, router, make_common_coin(0))
        h.nodes[0].receive(3, Packet(instance=0, mtype="bval", value="junk", round=1))
        h.nodes[0].receive(3, Packet(instance=0, mtype="bval", value=True, round=1))
        assert h.nodes[0]._bval_recv == {}


# ---------------------------------------------------------------------------
# ACS composition


def run_acs(n, seed=0, adversaries=None, byzantine=(), live=None):
    f = max_faulty(n)
    sim, _, router = make_fabric(n, seed=seed, adversaries=adversaries)
    coin = make_common_coin(seed)
    outputs = []
    nodes = {}
    for i in live if live is not None else range(n):
        nodes[i] = ACSNode(
            node_id=i, n=n, f=f, router=router, coin=coin,
            on_output=outputs.append,
        )
    for i, node in nodes.items():
        node.propose(("val", i))
    sim.run()
    return nodes, outputs


class TestACS:
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_fault_full_subset(self, n, seed):
        nodes, outputs = run_acs(n, seed=seed)
        reference = nodes[0].output
        assert reference is not None
        assert sorted(reference) == list(range(n))
        for node in nodes.values():
            assert node.output == reference

    @pytest.mark.parametrize("adversary", ["equivocate", "withhold", "crash_midway"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agreement_and_size_under_adversary(self, adversary, seed):
        n = 7
        f = max_faulty(n)
        byz = (1, 4)  # |byz| = 2 = f
        adversaries = {b: make_adversary(adversary, n) for b in byz}
        nodes, _ = run_acs(n, seed=seed, adversaries=adversaries, byzantine=byz)
        honest = [i for i in range(n) if i not in byz]
        reference = nodes[honest[0]].output
        assert reference is not None
        for i in honest:
            assert nodes[i].output == reference  # agreement
        assert len(reference) >= acs_subset_size(n, len(byz))  # |S| >= n - f
        # every honest slot in S carries the honest proposal
        for j, value in reference.items():
            if j in honest:
                assert value == ("val", j)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_crashed_members_excluded(self, seed):
        """Crash-silent members never make the subset; the rest agree."""
        n = 7
        live = [0, 2, 3, 4, 6]  # 1 and 5 silent from the start
        nodes, _ = run_acs(n, seed=seed, live=live)
        reference = nodes[0].output
        assert reference is not None
        assert 1 not in reference and 5 not in reference
        assert len(reference) >= acs_subset_size(n, 2)
        for i in live:
            assert nodes[i].output == reference


# ---------------------------------------------------------------------------
# the "acs" ConsensusProtocol adapter


def proposal_stack(rng, n=7, d=6):
    center = rng.standard_normal(d)
    return center + 0.1 * rng.standard_normal((n, d)), center


class TestACSConsensus:
    def test_registered(self):
        protocol = get_consensus("acs")
        assert isinstance(protocol, ACSConsensus)
        assert protocol.handles_silent

    def test_registry_does_not_inject_validator(self):
        protocol = get_consensus("acs", validator=object())
        assert isinstance(protocol, ACSConsensus)

    def test_clean_run_accepts_all(self):
        rng = seeded_generator(0)
        proposals, center = proposal_stack(rng)
        result = ACSConsensus().agree(proposals, rng=rng)
        assert result.accepted.all()
        assert np.linalg.norm(result.value - center) < 1.0
        assert result.cost.model_messages > 0
        assert result.cost.scalar_messages > 0
        assert result.cost.rounds >= 2  # RBC stage + at least one ABA round

    @pytest.mark.parametrize("adversary", ["equivocate", "withhold", "crash_midway"])
    def test_byzantine_protocol_behaviour(self, adversary):
        rng = seeded_generator(1)
        proposals, center = proposal_stack(rng)
        byz = np.zeros(7, dtype=bool)
        byz[[1, 4]] = True
        result = ACSConsensus(adversary=adversary).agree(
            proposals, byzantine_mask=byz, rng=rng
        )
        # honest majority survives; the aggregate stays near the center
        assert result.accepted[~byz].sum() >= acs_subset_size(7, 2) - 2
        assert np.linalg.norm(result.value - center) < 1.0
        assert result.info["subset"] == sorted(result.info["subset"])

    def test_silent_members_not_accepted(self):
        rng = seeded_generator(2)
        proposals, _ = proposal_stack(rng)
        silent = np.zeros(7, dtype=bool)
        silent[[2, 5]] = True
        result = ACSConsensus().agree(proposals, silent_mask=silent, rng=rng)
        assert not result.accepted[silent].any()
        assert result.accepted.sum() >= acs_subset_size(7, 2)
        assert result.info["silent"] == 2

    def test_under_marked_cluster_late_honest_slot(self):
        """Every node waits for ``n - max_faulty(n)`` slots whatever the
        number of members marked faulty.  With 1 of the 2 tolerated
        members Byzantine and 5% link drops, seed 305 leaves a late
        *honest* slot out (|S| = 5 = 7 - 2): that is the protocol's
        guarantee, not an invariant violation."""
        rng = seeded_generator(305)
        proposals, center = proposal_stack(rng)
        byz = np.zeros(7, dtype=bool)
        byz[6] = True
        plan = FaultPlan.uniform(drop_probability=0.05, seed=307)
        result = ACSConsensus(fault_plan=plan, adversary="equivocate").agree(
            proposals, byzantine_mask=byz, rng=rng
        )
        assert len(result.info["subset"]) == acs_subset_size(7, max_faulty(7)) == 5
        assert np.linalg.norm(result.value - center) < 1.0

    def test_fault_bound_enforced(self):
        rng = seeded_generator(3)
        proposals, _ = proposal_stack(rng, n=6)
        byz = np.zeros(6, dtype=bool)
        byz[0] = True
        silent = np.zeros(6, dtype=bool)
        silent[1] = True
        with pytest.raises(ValueError):
            ACSConsensus().agree(
                proposals, byzantine_mask=byz, silent_mask=silent, rng=rng
            )

    def test_fault_plan_applies_to_consensus_traffic(self):
        rng = seeded_generator(4)
        proposals, center = proposal_stack(rng)
        plan = FaultPlan.uniform(drop_probability=0.1, seed=11)
        result = ACSConsensus(fault_plan=plan).agree(proposals, rng=rng)
        assert result.accepted.all()
        assert result.info["fault_stats"]["dropped"] > 0
        assert np.linalg.norm(result.value - center) < 1.0

    def test_bit_identical_replay(self):
        proposals, _ = proposal_stack(seeded_generator(5))
        byz = np.zeros(7, dtype=bool)
        byz[1] = True

        def run():
            return ACSConsensus(adversary="equivocate").agree(
                proposals, byzantine_mask=byz, rng=seeded_generator(42)
            )

        a, b = run(), run()
        np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(a.accepted, b.accepted)
        assert a.info["events"] == b.info["events"]
        assert a.info["sim_time"] == b.info["sim_time"]
        assert a.cost == b.cost

    def test_cost_billed_from_messages_actually_sent(self):
        rng = seeded_generator(6)
        proposals, _ = proposal_stack(rng)
        result = ACSConsensus().agree(proposals, rng=rng)
        by_kind = result.info["messages_by_kind"]
        assert result.cost.model_messages == (
            by_kind.get("acs.init", 0) + by_kind.get("acs.echo", 0)
        )
        assert result.cost.scalar_messages == sum(
            by_kind.get(k, 0)
            for k in ("acs.ready", "acs.bval", "acs.aux", "acs.done")
        )
        # self-deliveries ride the event queue, not the bill
        assert result.info["self_deliveries"] > 0

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError):
            ACSConsensus(adversary="rumour")

    def test_stall_reported_as_invariant_violation(self):
        rng = seeded_generator(7)
        proposals, _ = proposal_stack(rng)
        with pytest.raises(InvariantViolation, match="stalled"):
            ACSConsensus(max_events=50).agree(proposals, rng=rng)


# ---------------------------------------------------------------------------
# satellite 1: the PBFT live-member bill


class TestPBFTBill:
    def _bill(self, n, silent_count, seed=0):
        rng = seeded_generator(seed)
        proposals = rng.standard_normal((n, 4))
        protocol = PBFTConsensus()
        silent = np.zeros(n, dtype=bool)
        silent[:silent_count] = True
        result = protocol.agree(
            proposals,
            silent_mask=silent if silent_count else None,
            rng=seeded_generator(seed + 1),
        )
        return result

    def test_silent_members_not_billed_as_senders(self):
        """The bill must shrink when members are crash-silent."""
        n = 7
        live = self._bill(n, 0)
        with_silent = self._bill(n, 2)
        assert with_silent.cost.scalar_messages < live.cost.scalar_messages
        assert with_silent.cost.model_messages <= live.cost.model_messages

    def test_exact_live_member_formula(self):
        n = 7
        result = self._bill(n, 2)
        n_live = 5
        views = result.info["view_changes"] + 1
        timeouts = result.info["view_timeouts"]
        assert result.cost.model_messages == (n_live - 1) + (
            (views - timeouts) * (n_live - 1)
        )
        assert result.cost.scalar_messages == (
            views * 2 * n_live * (n_live - 1)
            + result.info["view_changes"] * n_live * (n_live - 1)
        )

    def test_no_silent_matches_original_bill(self):
        """Without silent members the bill equals the historical formula."""
        n = 6
        result = self._bill(n, 0)
        views = result.info["view_changes"] + 1
        assert result.cost.model_messages == (n - 1) + views * (n - 1)
        assert result.cost.scalar_messages == (
            views * 2 * n * (n - 1)
            + result.info["view_changes"] * n * (n - 1)
        )


# ---------------------------------------------------------------------------
# satellite 2: silent_mask on every protocol via the base class


@pytest.mark.parametrize(
    "name", ["voting", "committee", "pos", "approx_agreement", "pbft"]
)
class TestSilentMaskBase:
    def test_silent_excluded_and_info_counted(self, name):
        rng = seeded_generator(0)
        n = 8
        proposals = rng.standard_normal((n, 4)) * 0.1
        protocol = get_consensus(name)
        silent = np.zeros(n, dtype=bool)
        silent[3] = True
        result = protocol.agree(
            proposals, silent_mask=silent, rng=seeded_generator(1)
        )
        assert result.accepted.shape == (n,)
        assert not result.accepted[3]
        assert result.accepted.any()
        assert result.info["silent"] == 1


class TestCommitteeRemap:
    def test_committee_indices_remapped_to_full_membership(self):
        """The reported committee must index the original stack."""
        rng = seeded_generator(4)
        n = 9
        proposals = rng.standard_normal((n, 4)) * 0.1
        silent = np.zeros(n, dtype=bool)
        silent[[0, 1]] = True
        protocol = get_consensus("committee", {"committee_size": 4})
        result = protocol.agree(proposals, silent_mask=silent, rng=seeded_generator(5))
        committee = np.asarray(result.info["committee"])
        assert committee.size == 4
        assert not np.isin(committee, [0, 1]).any()
        assert ((committee >= 0) & (committee < n)).all()

    def test_all_silent_rejected(self):
        rng = seeded_generator(6)
        proposals = rng.standard_normal((4, 3))
        protocol = get_consensus("voting")
        with pytest.raises(ValueError, match="silent"):
            protocol.agree(proposals, silent_mask=np.ones(4, dtype=bool), rng=rng)


# ---------------------------------------------------------------------------
# trainer integration


class TestTrainerWithACS:
    def test_round_runs_with_acs_top(self):
        from tests.test_core_trainer import default_config, small_setup

        from repro.core.config import LevelAggregation
        from repro.core.trainer import ABDHFLTrainer

        hierarchy, datasets, model, test = small_setup(n_top=4, seed=1)
        cfg = default_config(
            default_top=LevelAggregation("cba", "acs"),
        )
        trainer = ABDHFLTrainer(hierarchy, datasets, model, cfg, test)
        record = trainer.run_round()
        assert np.isfinite(record.test_loss)
        assert record.consensus_cost.model_messages > 0
        assert record.consensus_cost.scalar_messages > 0


# ---------------------------------------------------------------------------
# defence matrix with the consensus axis


class TestMatrixConsensusAxis:
    KW = dict(
        defences=("median",),
        attacks=("sign_flip",),
        fractions=(0.2,),
        n_total=7,
        dim=8,
        n_trials=2,
        seed=3,
        consensus="acs",
        consensus_adversary="equivocate",
        drop_fraction=0.15,
    )

    def test_cells_carry_consensus_labels(self):
        from repro.scenario import matrix_spec, run_scenario

        cells = run_scenario(matrix_spec(**self.KW), workers=1).cells
        assert all(c.consensus == "acs" for c in cells)
        assert all(c.consensus_adversary == "equivocate" for c in cells)
        assert all(np.isfinite(c.gap) for c in cells)

    def test_adversary_requires_acs(self):
        from repro.experiments.matrix import gradient_gap

        with pytest.raises(ValueError, match="acs"):
            gradient_gap(
                "median", "sign_flip",
                consensus="voting", consensus_adversary="withhold",
            )
        with pytest.raises(ValueError, match="consensus backend"):
            gradient_gap(
                "median", "sign_flip",
                fault_plan=FaultPlan.uniform(drop_probability=0.1),
            )

    @pytest.mark.slow
    def test_bit_identical_across_worker_counts(self):
        """The acs matrix under an active fault plan shards cleanly:
        REPRO_WORKERS is a pure wall-clock knob, never a results knob."""
        from repro.scenario import FaultSpec, matrix_spec, run_scenario

        spec = matrix_spec(
            **self.KW, faults=FaultSpec(drop_probability=0.05, seed=11)
        )
        serial = run_scenario(spec, workers=1)
        sharded = run_scenario(spec, workers=2)
        assert serial.cells == sharded.cells
