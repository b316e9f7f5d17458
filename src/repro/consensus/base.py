"""Consensus protocol interface, result record and cost accounting."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.aggregation.matrix import ParameterMatrix
from repro.check import invariants, sanitize
from repro.obs import audit, trace

__all__ = ["ConsensusResult", "CostModel", "ConsensusProtocol"]


@dataclass
class CostModel:
    """Communication bill of one consensus execution.

    ``model_messages`` move full parameter vectors (``d * 8`` bytes each);
    ``scalar_messages`` move votes/acks (counted at ``scalar_bytes``).
    """

    model_messages: int = 0
    scalar_messages: int = 0
    rounds: int = 0
    scalar_bytes: int = 64

    def add(self, other: "CostModel") -> None:
        self.model_messages += other.model_messages
        self.scalar_messages += other.scalar_messages
        self.rounds += other.rounds

    def total_bytes(self, d: int) -> int:
        """Bytes on the wire given model dimension ``d``."""
        return self.model_messages * d * 8 + self.scalar_messages * self.scalar_bytes

    def total_messages(self) -> int:
        return self.model_messages + self.scalar_messages


@dataclass
class ConsensusResult:
    """Outcome of a consensus execution."""

    value: np.ndarray
    accepted: np.ndarray  # boolean mask over proposals
    cost: CostModel = field(default_factory=CostModel)
    info: dict[str, object] = field(default_factory=dict)

    @property
    def n_excluded(self) -> int:
        return int((~self.accepted).sum())


class ConsensusProtocol(ABC):
    """Agreement among ``n`` cluster members, each holding one proposal.

    ``proposals[i]`` is the model vector held (and proposed) by member
    ``i``.  ``byzantine_mask[i]`` marks members whose *protocol behaviour*
    is adversarial (they vote/relay maliciously).  Note the distinction
    from data poisoning: in the paper's Appendix D threat model a
    data-poisoning node follows the protocol honestly, so its mask entry
    is False even though its proposal was trained on poisoned data.

    ``silent_mask[i]`` marks crash-stopped members: they propose nothing
    and vote nothing.  Every protocol honours it — by default the base
    class strips silent rows before calling :meth:`_agree` and re-expands
    the acceptance mask afterwards, so a crashed member can never be
    accepted nor influence the vote.  Protocols that model crashes
    natively (a silent PBFT primary must *time out*, an unreachable ACS
    member must still be addressed on the wire) set ``handles_silent``
    and receive the full-width mask instead.
    """

    name: str = ""
    #: Subclasses that reason about silent members themselves (timeouts,
    #: wasted transmissions) receive the mask in ``_agree``; for the rest
    #: the base class reduces the problem to the live members.
    handles_silent: bool = False

    def agree(
        self,
        proposals: "np.ndarray | ParameterMatrix",
        weights: np.ndarray | None = None,
        byzantine_mask: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        silent_mask: np.ndarray | None = None,
    ) -> ConsensusResult:
        if isinstance(proposals, ParameterMatrix):
            # Round-stacked matrix from the trainer: reuse its validated
            # rows/weights instead of coercing a second time.
            if weights is None:
                weights = proposals.weights
            proposals = proposals.data
        proposals = np.asarray(proposals, dtype=np.float64)
        if proposals.ndim != 2 or proposals.shape[0] == 0:
            raise ValueError(
                f"proposals must be a non-empty [n, d] stack, got {proposals.shape}"
            )
        n = proposals.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise ValueError(f"weights shape {weights.shape} != ({n},)")
            if (weights < 0).any() or weights.sum() <= 0:
                raise ValueError("weights must be non-negative, not all zero")
            weights = weights / weights.sum()
        if byzantine_mask is None:
            byzantine_mask = np.zeros(n, dtype=bool)
        else:
            byzantine_mask = np.asarray(byzantine_mask, dtype=bool)
            if byzantine_mask.shape != (n,):
                raise ValueError(
                    f"byzantine_mask shape {byzantine_mask.shape} != ({n},)"
                )
        if silent_mask is None:
            silent = np.zeros(n, dtype=bool)
        else:
            silent = np.asarray(silent_mask, dtype=bool)
            if silent.shape != (n,):
                raise ValueError(f"silent_mask shape {silent.shape} != ({n},)")
        if rng is None:
            raise ValueError(
                "agree() requires an explicit rng: pass a generator derived "
                "from the experiment seed tree (seeded_generator/derive_seed)"
            )
        checking = sanitize.enabled()
        if checking:
            sanitize.assert_finite(
                proposals, "consensus proposals", rule=self.name or None
            )
        if silent.any() and not self.handles_silent:
            result = self._agree_live(proposals, weights, byzantine_mask, silent, rng)
        else:
            result = self._agree(proposals, weights, byzantine_mask, silent, rng)
        tr = trace.tracer()
        if tr is not None:
            self._trace_instance(tr, result, n=n, d=proposals.shape[1])
        au = audit.auditor()
        if au is not None:
            self._audit_instance(au, result, byzantine_mask, silent, n=n)
        if checking:
            invariants.check_consensus_result(
                result, n=n, d=proposals.shape[1], protocol=self.name or type(self).__name__
            )
            sanitize.assert_finite(
                result.value, "consensus output", rule=self.name or None
            )
        return result

    def _agree_live(
        self,
        proposals: np.ndarray,
        weights: np.ndarray,
        byzantine_mask: np.ndarray,
        silent: np.ndarray,
        rng: np.random.Generator,
    ) -> ConsensusResult:
        """Run :meth:`_agree` over live members only, then re-expand.

        Silent (crash-stopped) members never delivered a proposal, so
        protocols without native crash handling simply never see them:
        their rows are stripped before agreement and their acceptance
        entries are False by construction.  Index-bearing info fields
        (the committee) are mapped back to full-membership indices.
        """
        n = proposals.shape[0]
        live = np.flatnonzero(~silent)
        if live.size == 0:
            raise ValueError("all members silent: no proposal was delivered")
        live_weights = weights[live]
        live_weights = live_weights / live_weights.sum()
        result = self._agree(
            proposals[live],
            live_weights,
            byzantine_mask[live],
            np.zeros(live.size, dtype=bool),
            rng,
        )
        accepted = np.zeros(n, dtype=bool)
        accepted[live] = result.accepted
        result.accepted = accepted
        committee = result.info.get("committee")
        if committee is not None:
            result.info["committee"] = live[np.asarray(committee)]
        result.info["silent"] = int(silent.sum())
        return result

    def _trace_instance(
        self, tr: "trace.Tracer", result: ConsensusResult, n: int, d: int
    ) -> None:
        """Record one consensus execution (instant + counters, read-only).

        The timestamp is the ambient training round from the sanitizer
        provenance stack (the trainer always opens one around a round);
        0 when the protocol runs outside any round, e.g. in unit tests.
        """
        name = self.name or type(self).__name__
        ambient_round = sanitize.current_provenance().get("round_index")
        t = ambient_round if isinstance(ambient_round, int) else 0
        args: dict[str, object] = {
            "round": t,
            "n": n,
            "d": d,
            "excluded": result.n_excluded,
            "rounds": result.cost.rounds,
            "messages": result.cost.total_messages(),
            "bytes": result.cost.total_bytes(d),
        }
        for key in ("view_changes", "view_timeouts"):
            value = result.info.get(key)
            if isinstance(value, int):
                args[key] = value
        tr.instant(f"consensus.{name}", "consensus", float(t), **args)
        tr.metrics.counter(f"consensus.{name}.instances").inc()
        tr.metrics.counter(f"consensus.{name}.excluded").inc(result.n_excluded)
        tr.metrics.counter(f"consensus.{name}.messages").inc(
            result.cost.total_messages()
        )
        tr.metrics.counter(f"consensus.{name}.bytes").inc(
            result.cost.total_bytes(d)
        )
        rejection = result.n_excluded / n if n else 0.0
        tr.metrics.histogram(
            "consensus.rejection_rate", bounds=(0.1, 0.2, 0.3, 0.5)
        ).observe(rejection)

    def _audit_instance(
        self,
        au: "audit.Auditor",
        result: ConsensusResult,
        byzantine_mask: np.ndarray,
        silent: np.ndarray,
        n: int,
    ) -> None:
        """Emit one ``consensus`` audit record (auditing on, read-only).

        The accepted / silent masks come from the execution itself, the
        ``byzantine`` mask is the *input* adversary assignment, and any
        per-member vote evidence a protocol published in ``info`` (PBFT
        scores, the ACS agreed subset) is carried along verbatim.
        """
        name = self.name or type(self).__name__
        ambient_round = sanitize.current_provenance().get("round_index")
        evidence: dict[str, object] = {}
        for key in (
            "scores",
            "threshold",
            "primary",
            "quorum",
            "subset",
            "equivocated_slots",
            "view_changes",
            "view_timeouts",
            "committee",
        ):
            value = result.info.get(key)
            if value is not None:
                evidence[key] = value
        equivocated = result.info.get("equivocated")
        fields: dict[str, object] = {
            "protocol": name,
            "n": n,
            "accepted": [bool(a) for a in result.accepted],
            "silent": [bool(s) for s in silent],
            "byzantine": [bool(b) for b in byzantine_mask],
            "equivocated": equivocated if isinstance(equivocated, int) else 0,
            "excluded": result.n_excluded,
            "rejected": [bool(r) for r in ~result.accepted],
        }
        if isinstance(ambient_round, int):
            fields["step"] = ambient_round
        if evidence:
            fields["evidence"] = evidence
        au.record("consensus", **fields)

    @abstractmethod
    def _agree(
        self,
        proposals: np.ndarray,
        weights: np.ndarray,
        byzantine_mask: np.ndarray,
        silent: np.ndarray,
        rng: np.random.Generator,
    ) -> ConsensusResult:
        """Protocol body.

        ``silent`` is all-False unless the subclass sets
        ``handles_silent`` (the base class resolves crashes by reduction
        otherwise), so most implementations may ignore it.
        """
