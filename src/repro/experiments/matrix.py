"""Attack x defence robustness matrix (the quantitative face of
Tables I/II).

To keep the full cross-product affordable, the matrix is evaluated on the
*gradient estimation* abstraction the aggregation literature uses: honest
updates are the true mean plus Gaussian sampling noise; the attack
fabricates Byzantine updates (omnisciently); the defence aggregates; the
metric is the Euclidean gap between the aggregate and the true mean,
normalised by the honest noise level.  A gap near 1 means "as good as an
honest average"; gaps growing with the attack mean the defence broke.

:func:`gradient_gap` is the single-cell primitive the ``defence_matrix``
and ``breakdown_curve`` scenario kinds (:mod:`repro.scenario`) fan out;
:func:`defence_options_for` derives a rule's options from the Byzantine
fraction each cell operates at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.base import get_aggregator
from repro.attacks.base import get_attack
from repro.consensus import get_consensus
from repro.consensus.base import ConsensusProtocol
from repro.faults.plan import FaultPlan
from repro.obs import audit
from repro.utils.seeding import seeded_generator

__all__ = ["gradient_gap", "MatrixCell", "defence_options_for"]


def defence_options_for(defence: str, byzantine_fraction: float) -> dict | None:
    """Rule options parameterised for the *operating* adversary share.

    Robustness guarantees are conditional on the rule knowing the
    Byzantine fraction it faces: trimmed-mean must trim at least that
    share from each tail, Krum/Multi-Krum size their neighbour sets from
    it.  Evaluating a 10 % or 40 % adversary with options hard-coded for
    the canonical 25 % silently measures a mis-parameterised defence.
    Returns ``None`` for rules that take no fraction parameter.
    """
    if defence == "trimmed_mean":
        # beta must stay below 0.5 (both tails are trimmed); past that
        # the rule has no guarantee regardless of parameterisation.
        return {"beta": min(byzantine_fraction, 0.49)}
    if defence in ("krum", "multikrum"):
        return {"byzantine_fraction": byzantine_fraction}
    return None


@dataclass
class MatrixCell:
    defence: str
    attack: str
    byzantine_fraction: float
    gap: float  # ||aggregate - true_mean|| / honest noise scale
    consensus: str | None = None
    consensus_adversary: str = "none"


def _make_cell_consensus(
    consensus: str | None,
    consensus_adversary: str,
    consensus_options: dict | None,
    fault_plan: FaultPlan | None,
) -> ConsensusProtocol | None:
    """Build the per-cell consensus backend (or ``None``)."""
    if consensus is None:
        if consensus_adversary != "none":
            raise ValueError(
                "consensus_adversary requires a consensus backend"
            )
        if fault_plan is not None:
            raise ValueError("fault_plan requires a consensus backend")
        return None
    options = dict(consensus_options or {})
    if consensus == "acs":
        options.setdefault("adversary", consensus_adversary)
        if fault_plan is not None:
            options.setdefault("fault_plan", fault_plan)
    elif consensus_adversary != "none":
        raise ValueError(
            "consensus-level adversaries are only simulated by the "
            f"'acs' backend, not {consensus!r}"
        )
    elif fault_plan is not None:
        raise ValueError(
            "fault plans only apply to the message-driven 'acs' backend, "
            f"not {consensus!r}"
        )
    return get_consensus(consensus, options)


def gradient_gap(
    defence: str,
    attack: str,
    n_total: int = 20,
    byzantine_fraction: float = 0.25,
    dim: int = 64,
    noise: float = 0.5,
    n_trials: int = 8,
    seed: int = 0,
    defence_options: dict | None = None,
    attack_options: dict | None = None,
    consensus: str | None = None,
    consensus_adversary: str = "none",
    consensus_options: dict | None = None,
    fault_plan: FaultPlan | None = None,
    drop_fraction: float = 0.0,
) -> float:
    """Mean normalised distance of the aggregate from the true gradient.

    With ``consensus`` set, each trial first runs the named CBA backend
    over the update stack (Byzantine rows flagged, crash-silent rows
    masked) and the defence aggregates only the updates the backend
    *accepted* — measuring the composed pipeline the paper's top cluster
    runs, where consensus decides whose proposal counts and the BRA rule
    robustifies what remains.  ``consensus_adversary`` and ``fault_plan``
    additionally subject the consensus traffic itself to equivocation /
    withholding / partial-broadcast adversaries and to link faults (the
    message-driven ``"acs"`` backend only).  ``drop_fraction`` makes that
    share of the honest members crash-silent for the whole cell.
    """
    if not (0.0 <= byzantine_fraction < 1.0):
        raise ValueError(f"byzantine_fraction out of range: {byzantine_fraction}")
    if not (0.0 <= drop_fraction < 1.0):
        raise ValueError(f"drop_fraction out of range: {drop_fraction}")
    rng = seeded_generator(seed)
    aggregator = get_aggregator(defence, **(defence_options or {}))
    attacker = get_attack(attack, **(attack_options or {})) if attack != "none" else None
    protocol = _make_cell_consensus(
        consensus, consensus_adversary, consensus_options, fault_plan
    )
    n_byz = int(byzantine_fraction * n_total)
    n_honest = n_total - n_byz
    if n_honest < 1:
        raise ValueError("at least one honest update is required")
    n_drop = int(drop_fraction * n_honest)
    if n_drop >= n_honest:
        raise ValueError("drop_fraction leaves no live honest member")
    au = audit.auditor()
    cell = {
        "defence": defence,
        "attack": attack,
        "fraction": byzantine_fraction,
        "consensus": consensus,
    }
    with audit.context(cell=cell):
        gaps = []
        for trial in range(n_trials):
            true_mean = rng.standard_normal(dim)
            honest = true_mean[None, :] + noise * rng.standard_normal(
                (n_honest, dim)
            )
            if attacker is not None and n_byz > 0:
                byz = attacker(honest, n_byz, rng)
                updates = np.concatenate([honest, byz], axis=0)
            else:
                updates = honest
            n = updates.shape[0]
            byz_mask = np.zeros(n, dtype=bool)
            byz_mask[n_honest:] = True
            silent = np.zeros(n, dtype=bool)
            if n_drop:
                # The highest-index honest members crash (deterministic
                # choice; which members crash is not what the cell measures).
                silent[n_honest - n_drop : n_honest] = True
            members = list(range(n))
            if au is not None:
                au.record(
                    "ground_truth",
                    step=trial,
                    n=n,
                    members=members,
                    byzantine=[int(i) for i in np.flatnonzero(byz_mask)],
                    silent=[int(i) for i in np.flatnonzero(silent)],
                )
            if protocol is not None:
                with audit.context(step=trial, members=members):
                    result = protocol.agree(
                        updates,
                        byzantine_mask=byz_mask,
                        silent_mask=silent if silent.any() else None,
                        rng=rng,
                    )
                survivor_ids = np.flatnonzero(result.accepted)
            else:
                survivor_ids = np.flatnonzero(~silent)
            with audit.context(step=trial, members=survivor_ids):
                agg = aggregator(updates[survivor_ids])
            gaps.append(float(np.linalg.norm(agg - true_mean)) / noise)
        gap = float(np.mean(gaps))
        if au is not None:
            au.record("metric", step=n_trials, name="gradient_gap", value=gap)
        return gap
