"""Report renderers: one ``(spec, cells) -> str`` function per scenario
kind, each printing its paper artefact's table.

:func:`repro.scenario.kinds.render_result` picks the renderer from the
kind table; nothing here looks at ``spec.kind``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.experiments.backdoor import TARGET_LABEL, BackdoorCell
from repro.experiments.figure2 import PipelineCell
from repro.experiments.figure3 import ConvergenceCell
from repro.experiments.matrix import MatrixCell
from repro.experiments.schemes import SchemeOutcome
from repro.experiments.table5 import Table5Cell, format_table5
from repro.experiments.theorem2 import TolerancePoint, tolerance_bound
from repro.topology.analysis import max_byzantine_fraction
from repro.utils.tables import format_percent, format_table

if TYPE_CHECKING:
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "render_accuracy",
    "render_convergence",
    "render_schemes",
    "render_backdoor",
    "render_tolerance",
    "render_pipeline",
    "render_matrix",
    "render_breakdown",
]

#: Rows of the Theorem-2 closed-form table (bottom levels 0..4).
TOLERANCE_TABLE_LEVELS = 5


def render_accuracy(spec: "ScenarioSpec", cells: Sequence[Table5Cell]) -> str:
    """The paper's Table-V layout."""
    return format_table5(list(cells))


def render_convergence(
    spec: "ScenarioSpec", cells: Sequence[ConvergenceCell]
) -> str:
    """Figure 3 as text: ~12 sampled rounds of both mean curves, then the
    final accuracies; one block per scenario."""
    blocks = []
    for cell in cells:
        abd, van = cell.abdhfl, cell.vanilla
        lines = []
        if len(cells) > 1:
            lines.append(
                f"{'IID' if cell.iid else 'non-IID'} / {cell.attack} / "
                f"{format_percent(cell.malicious_fraction)} malicious"
            )
        for r in range(0, len(abd.mean), max(1, len(abd.mean) // 12)):
            lines.append(
                f"round {r:4d}: ABD-HFL {format_percent(abd.mean[r])} "
                f"vanilla {format_percent(van.mean[r])}"
            )
        lines.append(
            f"final: ABD-HFL {format_percent(abd.final_accuracy)} vs "
            f"vanilla {format_percent(van.final_accuracy)}"
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_schemes(spec: "ScenarioSpec", cells: Sequence[SchemeOutcome]) -> str:
    """Tables III/IV: accuracy next to the analytic per-round bill."""
    rows = [
        [
            o.scheme,
            f"{o.partial_kind}/{o.global_kind}",
            format_percent(o.final_accuracy),
            o.analytic_model_messages,
            o.analytic_scalar_messages,
        ]
        for o in cells
    ]
    return format_table(
        ["scheme", "partial/global", "accuracy", "model msgs", "scalar msgs"],
        rows,
    )


def render_backdoor(spec: "ScenarioSpec", cells: Sequence[BackdoorCell]) -> str:
    """Clean accuracy and attack success rate, one table per fraction."""
    return "\n\n".join(
        format_table(
            ["system", "clean accuracy", "attack success rate"],
            [
                [
                    "ABD-HFL",
                    format_percent(cell.abdhfl_accuracy),
                    format_percent(cell.abdhfl_asr),
                ],
                [
                    "Vanilla FL",
                    format_percent(cell.vanilla_accuracy),
                    format_percent(cell.vanilla_asr),
                ],
            ],
            title=f"Backdoor trigger, {format_percent(cell.malicious_fraction)} "
            f"adversaries (target label {TARGET_LABEL})",
        )
        for cell in cells
    )


def render_tolerance(spec: "ScenarioSpec", cells: Sequence[TolerancePoint]) -> str:
    """Theorem 2's closed-form per-level table, then the empirical sweep
    with the points past the bound marked."""
    gamma1, gamma2 = spec.tolerance.gamma1, spec.tolerance.gamma2
    rows = [
        [level, format_percent(max_byzantine_fraction(gamma1, gamma2, level), 4)]
        for level in range(TOLERANCE_TABLE_LEVELS)
    ]
    table = format_table(
        ["bottom level", "max tolerated Byzantine"],
        rows,
        title=f"Theorem 2 (gamma1={gamma1}, gamma2={gamma2})",
    )
    bound = tolerance_bound(spec.topology.n_levels, gamma1, gamma2)
    lines = [table, f"\nempirical sweep (bound {format_percent(bound, 4)}):"]
    for p in cells:
        marker = "" if p.below_bound else "  <-- above bound"
        lines.append(
            f"  {format_percent(p.malicious_fraction):>6}: "
            f"{format_percent(p.accuracy)}{marker}"
        )
    return "\n".join(lines)


def render_pipeline(spec: "ScenarioSpec", cells: Sequence[PipelineCell]) -> str:
    """Overall efficiency indicator and wire traffic of the timing run."""
    [cell] = cells
    return "\n".join(
        [
            f"overall efficiency (time-weighted): {cell.time_weighted:.3f}",
            f"plain mean of per-cluster nu:       {cell.unweighted_mean:.3f}",
            f"total waiting / overlapped time:    {cell.total_waiting:.1f} / "
            f"{cell.total_overlapped:.1f}",
            "network traffic:",
            cell.traffic,
        ]
    )


def render_matrix(spec: "ScenarioSpec", cells: Sequence[MatrixCell]) -> str:
    """One defence x attack grid per Byzantine fraction."""
    blocks = []
    for fraction in spec.fractions:
        subset = [c for c in cells if c.byzantine_fraction == fraction]
        title = (
            None
            if len(spec.fractions) == 1
            else f"byzantine fraction: {format_percent(fraction)}"
        )
        blocks.append(_matrix_grid(spec, subset, title))
    return "\n\n".join(blocks)


def _matrix_grid(
    spec: "ScenarioSpec", cells: Sequence[MatrixCell], title: str | None
) -> str:
    """One defence x attack grid (axes in first-seen cell order)."""
    defences = list(dict.fromkeys(c.defence for c in cells))
    attacks = list(dict.fromkeys(c.attack for c in cells))
    gap = {(c.defence, c.attack): c.gap for c in cells}
    rows = [
        [d] + [f"{gap[(d, a)]:.2f}" for a in attacks] for d in defences
    ]
    lines = []
    if title:
        lines.append(title)
    if spec.consensus:
        drop_messages = 0.0 if spec.faults is None else spec.faults.drop_probability
        lines.append(
            f"consensus backend: {spec.consensus} "
            f"(adversary: {spec.consensus_adversary}, "
            f"drop: {spec.drop_fraction:.0%}, msg loss: {drop_messages:.0%})"
        )
    lines.append(format_table(["defence \\ attack", *attacks], rows))
    return "\n".join(lines)


def render_breakdown(spec: "ScenarioSpec", cells: Sequence[MatrixCell]) -> str:
    """The empirical breakdown curve of one (defence, attack) pair."""
    rows = [
        [format_percent(c.byzantine_fraction), f"{c.gap:.2f}"] for c in cells
    ]
    return format_table(
        ["fraction", "gap"],
        rows,
        title=f"breakdown curve - {cells[0].defence} vs {cells[0].attack}",
    )
