"""Attack x defence robustness matrix (the quantitative face of
Tables I/II).

To keep the full cross-product affordable, the matrix is evaluated on the
*gradient estimation* abstraction the aggregation literature uses: honest
updates are the true mean plus Gaussian sampling noise; the attack
fabricates Byzantine updates (omnisciently); the defence aggregates; the
metric is the Euclidean gap between the aggregate and the true mean,
normalised by the honest noise level.  A gap near 1 means "as good as an
honest average"; gaps growing with the attack mean the defence broke.

:func:`gradient_gap` — the single-cell primitive — lives here; the sweep
entrypoints (:func:`run_defence_matrix`, :func:`breakdown_curve`) are
thin shims over :mod:`repro.scenario` specs, kept for callers and pinned
bit-identical to the spec-driven path by
``tests/test_scenario_equivalence.py``.
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
from repro.scenario.options import defence_options_for
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import matrix_spec
from repro.utils.seeding import seeded_generator

__all__ = [
    "gradient_gap",
    "MatrixCell",
    "defence_options_for",
    "run_defence_matrix",
    "breakdown_curve",
]

DEFAULT_DEFENCES = (
    "fedavg",
    "median",
    "trimmed_mean",
    "krum",
    "multikrum",
    "geomed",
    "autogm",
    "centered_clipping",
    "clustering",
)
DEFAULT_ATTACKS = ("sign_flip", "gaussian_noise", "alie", "ipm", "scaling")

# Back-compat view of the derived options at the matrix's canonical 25 %
# Byzantine fraction.
DEFENCE_OPTIONS: dict[str, dict] = {
    defence: options
    for defence in ("trimmed_mean", "krum", "multikrum")
    if (options := defence_options_for(defence, 0.25)) is not None
}


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


def breakdown_curve(
    defence: str,
    attack: str,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45),
    seed: int = 0,
    workers: int | None = None,
    **kwargs: object,
) -> list[MatrixCell]:
    """Gap as a function of the Byzantine fraction — the empirical
    breakdown curve of one (defence, attack) pair.

    The fraction where the gap departs from its clean level locates the
    rule's practical breakdown point (Table II discussion: "each type of
    method is particularly effective against some types of attacks").
    The defence is re-parameterised for each fraction on the axis
    (:func:`defence_options_for`), so the curve measures the rule at its
    honest best everywhere.  ``workers`` shards the fractions across
    processes with identical results.

    Thin shim over a ``breakdown_curve`` scenario spec
    (:mod:`repro.scenario`).
    """
    spec = matrix_spec(
        name="breakdown-curve",
        kind="breakdown_curve",
        defences=(defence,),
        attacks=(attack,),
        fractions=tuple(fractions),
        seed=seed,
        **_estimation_kwargs(kwargs),  # type: ignore[arg-type]
    )
    return ScenarioRunner(workers=workers).run(spec).cells


def run_defence_matrix(
    defences: tuple[str, ...] = DEFAULT_DEFENCES,
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    byzantine_fraction: float = 0.25,
    seed: int = 0,
    workers: int | None = None,
    consensus: str | None = None,
    consensus_adversary: str = "none",
    **kwargs: object,
) -> list[MatrixCell]:
    """Every defence against every attack at one Byzantine fraction.

    Each defence is parameterised for the *requested* fraction via
    :func:`defence_options_for`; ``workers`` shards the cells across
    processes (``REPRO_WORKERS``/serial when ``None``) with bit-identical
    cells in the same order.  ``consensus`` composes a CBA backend in
    front of every defence (see :func:`gradient_gap`); with ``"acs"``,
    ``consensus_adversary`` and a ``fault_plan`` keyword subject the
    consensus traffic itself to Byzantine behaviour and link faults.

    Thin shim over a ``defence_matrix`` scenario spec
    (:mod:`repro.scenario`).
    """
    spec = matrix_spec(
        name="defence-matrix",
        kind="defence_matrix",
        defences=tuple(defences),
        attacks=tuple(attacks),
        fractions=(byzantine_fraction,),
        seed=seed,
        consensus=consensus,
        consensus_adversary=consensus_adversary,
        **_estimation_kwargs(kwargs),  # type: ignore[arg-type]
    )
    return ScenarioRunner(workers=workers).run(spec).cells


_ESTIMATION_KWARGS = (
    "n_total",
    "dim",
    "noise",
    "n_trials",
    "attack_options",
    "consensus_options",
    "fault_plan",
    "drop_fraction",
)


def _estimation_kwargs(kwargs: dict) -> dict:
    """Validate the legacy ``**kwargs`` pass-through against the spec
    builder's vocabulary (the keys :func:`gradient_gap` accepted)."""
    unknown = sorted(set(kwargs) - set(_ESTIMATION_KWARGS))
    if unknown:
        raise TypeError(
            f"unexpected keyword argument{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))}"
        )
    return {k: v for k, v in kwargs.items() if v is not None}
