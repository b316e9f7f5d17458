"""The kind table: everything that depends on a spec's ``kind``, once.

Each row of :data:`KINDS` says which axes span the kind's grid (and in
what loop order), which spec sections apply, the admissible fraction
range and attack vocabulary, the spawn-safe task evaluating one cell and
the renderer printing the result.  ``ScenarioSpec.validate`` / ``to_dict``
read the row's data; :func:`expand_cells`, :func:`cell_task` and
:func:`render_result` read its behaviour.  Adding a kind is adding a row
(plus a shipped ``specs/*.toml`` — ``tests/test_scenario_kinds.py``
checks every row has one and runs end to end).

Axis order is part of the golden-equivalence contract
(``tests/test_scenario_equivalence.py``): ``accuracy_grid`` loops
``for distribution: for attack: for fraction`` (the paper's Table-V row
order), ``defence_matrix`` loops ``for fraction: for defence: for
attack``; axes pinned to one value (``single``) contribute no loop.

Cell seeds follow the spec's ``seed_policy``: ``"shared"`` hands every
cell the root seed (cells already derive independent streams
internally), ``"derived"`` gives cell ``i``
``derive_seed(seed, "cell", i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.attacks.base import available_attacks
from repro.scenario import grid, report
from repro.scenario.grid import ScenarioCell, Task
from repro.utils.seeding import derive_seed

if TYPE_CHECKING:
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "AXES",
    "DATA_ATTACKS",
    "Kind",
    "KINDS",
    "cell_seed",
    "expand_cells",
    "cell_task",
    "render_result",
]

#: Spec axis fields -> the :class:`ScenarioCell` field one value lands in.
AXES = {
    "distributions": "distribution",
    "attacks": "attack",
    "fractions": "fraction",
    "defences": "defence",
    "schemes": "scheme",
}

#: Data-poisoning attacks the trainer-based kinds dispatch through
#: :func:`repro.data.poisoning.apply_poisoning`.
DATA_ATTACKS = ("none", "type1", "type2", "label_flip", "backdoor")


def _data_attacks() -> tuple[str, ...]:
    return DATA_ATTACKS


def _model_attacks() -> tuple[str, ...]:
    return ("none", *available_attacks())


@dataclass(frozen=True)
class Kind:
    """One scenario kind (see the module docstring)."""

    axes: tuple[str, ...]  # spec axis fields, outermost loop first
    sections: tuple[str, ...]  # non-axis spec fields that apply
    task: Callable[[Task], Any]  # spawn-safe: evaluates one cell
    render: Callable[["ScenarioSpec", Sequence[Any]], str]
    single: frozenset[str] = frozenset()  # axes pinned to exactly one value
    fraction_limit: float = 1.0  # fractions lie in [0, limit)
    attacks: Callable[[], tuple[str, ...]] = _data_attacks  # vocabulary


_SCENARIO_AXES = ("distributions", "attacks", "fractions")
_TRAINER = ("topology", "data", "training", "placement")
_TOP = ("top_consensus", "top_options")
_ESTIMATION = (
    "estimation",
    "defence_options",
    "attack_options",
    "consensus",
    "consensus_adversary",
    "consensus_options",
    "drop_fraction",
    "faults",
)

KINDS: dict[str, Kind] = {
    # Table V: final accuracy, ABD-HFL vs vanilla, per scenario.
    "accuracy_grid": Kind(
        axes=_SCENARIO_AXES,
        sections=(*_TRAINER, *_TOP, "n_runs"),
        task=grid.accuracy_task,
        render=report.render_accuracy,
    ),
    # Figure 3: per-round accuracy curves over repeated runs.
    "convergence": Kind(
        axes=_SCENARIO_AXES,
        sections=(*_TRAINER, *_TOP, "n_runs"),
        task=grid.convergence_task,
        render=report.render_convergence,
    ),
    # Tables III/IV: one scenario under each deployment scheme (which
    # fixes the top-level mechanism, so the top_* fields do not apply).
    "scheme_comparison": Kind(
        axes=(*_SCENARIO_AXES, "schemes"),
        single=frozenset(_SCENARIO_AXES),
        sections=_TRAINER,
        task=grid.scheme_task,
        render=report.render_schemes,
    ),
    # Table I's backdoor row: clean accuracy + attack success rate.
    "backdoor": Kind(
        axes=_SCENARIO_AXES,
        single=frozenset({"distributions", "attacks"}),
        sections=(*_TRAINER, *_TOP),
        attacks=lambda: ("backdoor",),
        task=grid.backdoor_task,
        render=report.render_backdoor,
    ),
    # Theorem 2: closed form + ABD-HFL accuracy across the bound.
    "tolerance_sweep": Kind(
        axes=_SCENARIO_AXES,
        single=frozenset({"distributions", "attacks"}),
        sections=(*_TRAINER, *_TOP, "tolerance"),
        task=grid.tolerance_task,
        render=report.render_tolerance,
    ),
    # Figure 2: one event-driven timing run, no adversary axes.
    "pipeline_timing": Kind(
        axes=(),
        sections=("topology", "pipeline"),
        task=grid.pipeline_task,
        render=report.render_pipeline,
    ),
    # Tables I/II: normalised aggregate gap, defence x attack.  The
    # gradient-estimation abstraction measures rules that assume a strict
    # minority, hence the 0.5 fraction limit.
    "defence_matrix": Kind(
        axes=("fractions", "defences", "attacks"),
        sections=_ESTIMATION,
        fraction_limit=0.5,
        attacks=_model_attacks,
        task=grid.gap_task,
        render=report.render_matrix,
    ),
    # One (defence, attack) pair swept along the fraction axis, the
    # defence re-parameterised per fraction.
    "breakdown_curve": Kind(
        axes=("defences", "attacks", "fractions"),
        single=frozenset({"defences", "attacks"}),
        sections=_ESTIMATION,
        fraction_limit=0.5,
        attacks=_model_attacks,
        task=grid.breakdown_task,
        render=report.render_breakdown,
    ),
}


def cell_seed(spec: "ScenarioSpec", index: int) -> int:
    if spec.seed_policy == "derived":
        return derive_seed(spec.seed, "cell", index)
    return spec.seed


def expand_cells(spec: "ScenarioSpec") -> list[ScenarioCell]:
    """The spec's grid as an ordered, deterministically-seeded cell list."""
    axes = KINDS[spec.kind].axes
    return [
        ScenarioCell(
            index=i,
            seed=cell_seed(spec, i),
            **{AXES[axis]: value for axis, value in zip(axes, point)},
        )
        for i, point in enumerate(product(*(getattr(spec, axis) for axis in axes)))
    ]


def cell_task(spec: "ScenarioSpec") -> Callable[[Task], Any]:
    """The spawn-safe task function evaluating one of ``spec``'s cells."""
    return KINDS[spec.kind].task


def render_result(spec: "ScenarioSpec", cells: Sequence[Any]) -> str:
    """The report table for ``cells`` produced by ``spec``."""
    return KINDS[spec.kind].render(spec, cells)
