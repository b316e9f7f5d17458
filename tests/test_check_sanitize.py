"""Runtime sanitizer semantics: gating, provenance, and the guards wired
into aggregation, consensus, attacks and the NN forward pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation import get_aggregator
from repro.attacks import get_attack
from repro.check.sanitize import (
    OVERFLOW_LIMIT,
    SanitizerError,
    assert_finite,
    current_provenance,
    provenance,
    sanitized,
)
from repro.consensus.voting import VotingConsensus


class TestAssertFinite:
    def test_disabled_guard_never_inspects(self):
        bad = np.array([np.nan, np.inf])
        with sanitized(False):
            assert_finite(bad, "ignored payload")  # must not raise

    def test_finite_passes(self):
        assert_finite(np.zeros(8), "zeros")
        assert_finite(np.full(4, OVERFLOW_LIMIT), "at the limit")

    def test_integer_and_bool_skipped(self):
        assert_finite(np.arange(5), "ints")
        assert_finite(np.ones(3, dtype=bool), "bools")

    def test_nan_counted(self):
        values = np.array([0.0, np.nan, np.nan, 1.0])
        with pytest.raises(SanitizerError, match=r"2 NaN of 4 values"):
            assert_finite(values, "payload")

    def test_inf_counted(self):
        with pytest.raises(SanitizerError, match=r"1 Inf"):
            assert_finite(np.array([np.inf, 0.0]), "payload")

    def test_overflow_range_counted(self):
        with pytest.raises(SanitizerError, match="overflow-range"):
            assert_finite(np.array([1e151]), "payload")
        assert_finite(np.array([1e149]), "payload")  # under the limit

    def test_custom_limit(self):
        with pytest.raises(SanitizerError):
            assert_finite(np.array([10.0]), "payload", limit=5.0)

    def test_is_floating_point_error(self):
        with pytest.raises(FloatingPointError):
            assert_finite(np.array([np.nan]), "payload")

    def test_complex_checked(self):
        with pytest.raises(SanitizerError):
            assert_finite(np.array([complex(np.nan, 0)]), "payload")


class TestProvenance:
    def test_explicit_kwargs_in_message_and_attrs(self):
        with pytest.raises(SanitizerError) as excinfo:
            assert_finite(
                np.array([np.nan]),
                "aggregation input",
                rule="krum",
                node_id=7,
                round_index=3,
            )
        err = excinfo.value
        assert err.what == "aggregation input"
        assert (err.rule, err.node_id, err.round_index) == ("krum", 7, 3)
        message = str(err)
        assert "rule=krum" in message
        assert "node=7" in message
        assert "round=3" in message

    def test_ambient_context_merged(self):
        with provenance(node_id=2, round_index=5):
            with pytest.raises(SanitizerError) as excinfo:
                assert_finite(np.array([np.inf]), "forward output")
        assert excinfo.value.node_id == 2
        assert excinfo.value.round_index == 5

    def test_inner_scope_wins(self):
        with provenance(node_id=1, round_index=0):
            with provenance(node_id=9):
                assert current_provenance() == {"node_id": 9, "round_index": 0}
        assert current_provenance() == {}

    def test_explicit_beats_ambient(self):
        with provenance(rule="ambient"):
            with pytest.raises(SanitizerError) as excinfo:
                assert_finite(np.array([np.nan]), "x", rule="explicit")
        assert excinfo.value.rule == "explicit"

    def test_stack_unwinds_on_error(self):
        with pytest.raises(RuntimeError):
            with provenance(node_id=4):
                raise RuntimeError("boom")
        assert current_provenance() == {}


class TestWiredGuards:
    def test_aggregation_input_guard(self):
        # NaN/Inf are rejected by stack validation already; the sanitizer
        # adds the latent-overflow check on values that are still finite.
        updates = [np.full(4, 1e160), np.full(4, 1e160)]
        with pytest.raises(SanitizerError, match="aggregation input"):
            get_aggregator("fedavg")(updates)

    def test_aggregation_guard_off_when_disabled(self):
        updates = [np.full(4, 1e160), np.full(4, 1e160)]
        with sanitized(False):
            out = get_aggregator("fedavg")(updates)
        assert np.abs(out).max() > OVERFLOW_LIMIT

    def test_consensus_proposal_guard(self):
        proposals = np.ones((4, 3))
        proposals[1, 2] = np.inf
        with pytest.raises(SanitizerError, match="consensus proposals"):
            VotingConsensus().agree(proposals, rng=np.random.default_rng(0))

    def test_attack_output_guard(self):
        attack = get_attack("scaling", factor=1e200)
        honest = np.ones((3, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(SanitizerError, match="attack output"):
            attack(honest, n_byzantine=1, rng=rng)

    def test_forward_guard(self, tiny_model):
        x = np.full((2, 64), 1e200)
        with pytest.raises(SanitizerError, match="forward output"):
            tiny_model.forward(x)
