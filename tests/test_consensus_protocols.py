"""Tests for committee, PBFT, PoS and approximate-agreement consensus."""

import numpy as np
import pytest

from repro.consensus import (
    ApproximateAgreement,
    CommitteeConsensus,
    PBFTConsensus,
    PoSValidation,
)


def proposals_with_outlier(rng, n=7, d=10, magnitude=100.0):
    center = rng.standard_normal(d)
    good = center + 0.05 * rng.standard_normal((n - 1, d))
    bad = center + magnitude
    return np.vstack([good, bad[None, :]]), center


class TestCommittee:
    def test_excludes_outlier_with_full_committee(self, rng):
        proposals, center = proposals_with_outlier(rng, n=5)
        protocol = CommitteeConsensus(committee_size=5)
        result = protocol.agree(proposals, rng=rng)
        assert not result.accepted[-1]
        assert np.linalg.norm(result.value - center) < 1.0

    def test_committee_smaller_than_group(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=8)
        protocol = CommitteeConsensus(committee_size=3)
        result = protocol.agree(proposals, rng=rng)
        assert len(result.info["committee"]) == 3

    def test_cost_scales_with_committee(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=8)
        small = CommitteeConsensus(committee_size=2).agree(proposals, rng=rng)
        large = CommitteeConsensus(committee_size=8).agree(proposals, rng=rng)
        assert small.cost.total_messages() < large.cost.total_messages()

    def test_liveness_with_all_byzantine_committee(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=4)
        byz = np.ones(4, dtype=bool)
        result = CommitteeConsensus(committee_size=4).agree(
            proposals, byzantine_mask=byz, rng=rng
        )
        assert result.accepted.any()  # a value is still decided

    def test_validation(self):
        with pytest.raises(ValueError):
            CommitteeConsensus(committee_size=0)


class TestPBFT:
    def test_agrees_near_honest(self, rng):
        proposals, center = proposals_with_outlier(rng, n=7)
        result = PBFTConsensus().agree(proposals, rng=rng)
        assert np.linalg.norm(result.value - center) < 1.0

    def test_safety_bound_enforced(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=6)
        byz = np.array([True, True, False, False, False, False])
        # f=2, n=6: 3f >= n -> must raise
        with pytest.raises(ValueError):
            PBFTConsensus().agree(proposals, byzantine_mask=byz, rng=rng)

    def test_view_change_billed(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=7)
        byz = np.zeros(7, dtype=bool)
        byz[:2] = True
        costs = []
        for seed in range(20):
            r = PBFTConsensus().agree(
                proposals, byzantine_mask=byz, rng=np.random.default_rng(seed)
            )
            costs.append((r.info["view_changes"], r.cost.scalar_messages))
        views = [v for v, _ in costs]
        assert max(views) > 0  # some permutation starts with a Byzantine primary
        # more view changes must cost more
        by_views = {}
        for v, c in costs:
            by_views.setdefault(v, set()).add(c)
        if len(by_views) > 1:
            v_sorted = sorted(by_views)
            assert min(by_views[v_sorted[-1]]) > max(by_views[v_sorted[0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            PBFTConsensus(exclusion_quantile=1.0)


class TestPBFTSilentMembers:
    """Crash faults in PBFT: silent members propose nothing, and a silent
    primary times out into a view change instead of equivocating."""

    def test_silent_members_excluded_from_accepted(self, rng):
        proposals, center = proposals_with_outlier(rng, n=7)
        protocol = PBFTConsensus()
        silent = np.zeros(7, dtype=bool)
        silent[2] = True
        result = protocol.agree(proposals, silent_mask=silent, rng=rng)
        assert not result.accepted[2]
        assert np.linalg.norm(result.value - center) < 1.0
        # the mask belongs to one call: the next agree() sees a live quorum
        assert protocol.agree(proposals, rng=rng).accepted[2]

    def test_silent_primary_counts_view_timeouts(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=7)
        protocol = PBFTConsensus()
        timeouts = 0
        for seed in range(20):
            silent = np.zeros(7, dtype=bool)
            silent[0] = True
            r = protocol.agree(
                proposals, silent_mask=silent, rng=np.random.default_rng(seed)
            )
            assert r.info["view_timeouts"] <= r.info["view_changes"]
            timeouts += r.info["view_timeouts"]
        assert timeouts > 0  # some rotation started with the silent primary

    def test_silent_counted_against_safety_bound(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=6)
        byz = np.array([True, False, False, False, False, False])
        silent = np.array([False, True, False, False, False, False])
        protocol = PBFTConsensus()
        # f = 1 Byzantine + 1 silent = 2, n = 6: 3f >= n -> unsafe
        with pytest.raises(ValueError):
            protocol.agree(proposals, byzantine_mask=byz, silent_mask=silent, rng=rng)

    def test_bad_silent_mask_shape_rejected(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=7)
        protocol = PBFTConsensus()
        with pytest.raises(ValueError):
            protocol.agree(proposals, silent_mask=np.zeros(3, dtype=bool), rng=rng)


class TestPoS:
    def test_excludes_outlier(self, rng):
        proposals, center = proposals_with_outlier(rng, n=6)
        result = PoSValidation().agree(proposals, rng=rng)
        assert not result.accepted[-1]
        assert np.linalg.norm(result.value - center) < 1.0

    def test_slashing_reduces_byzantine_stake(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=5)
        byz = np.array([False, False, False, False, True])
        protocol = PoSValidation()
        first = protocol.agree(proposals, byzantine_mask=byz, rng=rng)
        second = protocol.agree(proposals, byzantine_mask=byz, rng=rng)
        stake = second.info["stake"]
        assert stake[-1] < stake[:-1].min()

    def test_reset_stake(self, rng):
        proposals, _ = proposals_with_outlier(rng, n=5)
        protocol = PoSValidation()
        protocol.agree(proposals, rng=rng)
        protocol.reset_stake()
        assert protocol._stake is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PoSValidation(slash_factor=0.0)


class TestApproximateAgreement:
    def test_converges_to_epsilon(self, rng):
        proposals = rng.standard_normal((7, 5)) * 10
        protocol = ApproximateAgreement(epsilon=1e-4, f=0)
        result = protocol.agree(proposals, rng=rng)
        assert result.info["rounds"] >= 1

    def test_validity_within_honest_range(self, rng):
        """Coordinate-wise validity: the agreed vector stays inside the
        honest inputs' range despite extreme Byzantine injections."""
        honest = rng.standard_normal((7, 4))
        byz_mask = np.zeros(9, dtype=bool)
        byz_mask[7:] = True
        proposals = np.vstack([honest, np.zeros((2, 4))])
        protocol = ApproximateAgreement(epsilon=1e-6, f=2, adversary="extreme")
        result = protocol.agree(proposals, byzantine_mask=byz_mask, rng=rng)
        lo = honest.min(axis=0) - 1e-6
        hi = honest.max(axis=0) + 1e-6
        assert np.all(result.value >= lo) and np.all(result.value <= hi)

    def test_requires_n_gt_3f(self, rng):
        proposals = rng.standard_normal((6, 3))
        byz = np.zeros(6, dtype=bool)
        byz[:2] = True
        with pytest.raises(ValueError):
            ApproximateAgreement().agree(proposals, byzantine_mask=byz, rng=rng)

    def test_cost_counts_rounds(self, rng):
        proposals = rng.standard_normal((7, 5)) * 100
        result = ApproximateAgreement(epsilon=1e-8, f=0).agree(proposals, rng=rng)
        n = 7
        assert result.cost.model_messages == result.info["rounds"] * n * (n - 1)

    def test_already_agreed_zero_rounds(self, rng):
        proposals = np.tile(rng.standard_normal(4), (5, 1))
        result = ApproximateAgreement(epsilon=1e-3, f=0).agree(proposals, rng=rng)
        assert result.info["rounds"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximateAgreement(epsilon=0)
        with pytest.raises(ValueError):
            ApproximateAgreement(adversary="chaotic")
