"""Configuration objects for the ABD-HFL trainer.

A configuration answers, per level, the question Algorithm 3 leaves open:
*which* aggregation runs there — a Byzantine-robust rule (**BRA**) or a
consensus mechanism (**CBA**) — plus the global knobs (local iterations,
quorum φ, flag level, correction policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["LevelAggregation", "TrainingConfig", "ABDHFLConfig"]

_VALID_KINDS = ("bra", "cba")


@dataclass(frozen=True)
class LevelAggregation:
    """Aggregation choice for one level.

    Attributes
    ----------
    kind:
        ``"bra"`` — a rule from :mod:`repro.aggregation`;
        ``"cba"`` — a protocol from :mod:`repro.consensus`.
    name:
        Registry name of the rule, or the protocol class name key
        (``"voting"``, ``"committee"``, ``"pbft"``, ``"pos"``,
        ``"approx_agreement"``, ``"acs"``).
    options:
        Keyword arguments for the rule/protocol constructor.
    """

    kind: str
    name: str
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if not self.name:
            raise ValueError("aggregation name must be non-empty")


@dataclass(frozen=True)
class TrainingConfig:
    """Local SGD knobs shared by ABD-HFL and the vanilla baseline."""

    local_iterations: int = 5
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.local_iterations <= 0:
            raise ValueError(
                f"local_iterations must be positive, got {self.local_iterations}"
            )
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )


@dataclass
class ABDHFLConfig:
    """Full ABD-HFL protocol configuration.

    Attributes
    ----------
    training:
        Local SGD knobs.
    level_aggregation:
        Per-level choice; keys are level indices (0 = top).  Levels
        missing from the map use ``default_intermediate`` (level >= 1) or
        ``default_top`` (level 0).
    phi:
        Quorum fraction per aggregation (Algorithm 4's ``phi_l``): a
        leader aggregates after receiving ``ceil(phi * cluster_size)``
        models.  In the round-synchronous trainer the remaining uploads
        of the round are treated as timed out (stragglers).
    flag_level:
        ``l_F`` — the level whose partial models are disseminated as flag
        models for the next round (pipeline mode only).
    pipeline_mode:
        If True, next-round training starts from the flag partial model
        and the global model is merged mid-training with the correction
        factor (Eq. 1); if False the next round starts directly from the
        disseminated global model (the classic synchronous-HFL semantics
        the paper's accuracy evaluation uses).
    global_arrival_iteration:
        In pipeline mode, the local iteration index at which the global
        model arrives and Eq. 1 is applied.
    workers:
        Process count for per-device local training
        (:mod:`repro.parallel`).  ``None`` defers to ``REPRO_WORKERS``
        (default 1); 1 is the exact serial code path.  Any count
        produces bit-identical results — parallelism here is a pure
        wall-clock knob, never a semantics knob.
    """

    training: TrainingConfig = field(default_factory=TrainingConfig)
    level_aggregation: dict[int, LevelAggregation] = field(default_factory=dict)
    default_intermediate: LevelAggregation = field(
        default_factory=lambda: LevelAggregation("bra", "multikrum")
    )
    default_top: LevelAggregation = field(
        default_factory=lambda: LevelAggregation("cba", "voting")
    )
    phi: float = 1.0
    flag_level: int = 1
    pipeline_mode: bool = False
    global_arrival_iteration: int = 2
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (0.0 < self.phi <= 1.0):
            raise ValueError(f"phi must be in (0, 1], got {self.phi}")
        if self.flag_level < 0:
            raise ValueError(f"flag_level must be non-negative, got {self.flag_level}")
        if self.global_arrival_iteration < 0:
            raise ValueError(
                "global_arrival_iteration must be non-negative, got "
                f"{self.global_arrival_iteration}"
            )
        for level, agg in self.level_aggregation.items():
            if level < 0:
                raise ValueError(f"level keys must be non-negative, got {level}")
            if not isinstance(agg, LevelAggregation):
                raise TypeError(
                    f"level {level}: expected LevelAggregation, got {type(agg)}"
                )

    def aggregation_for(self, level: int) -> LevelAggregation:
        """Resolve the aggregation choice for ``level``."""
        if level in self.level_aggregation:
            return self.level_aggregation[level]
        return self.default_top if level == 0 else self.default_intermediate
