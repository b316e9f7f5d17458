"""Golden equivalence: the scenario layer reproduces every pre-scenario
entrypoint bit for bit.

Each deleted sweep body (``run_table5`` / ``run_defence_matrix`` /
``breakdown_curve`` / ``run_figure3`` / ``run_scheme_comparison`` /
``run_backdoor`` / ``run_theorem2`` / the ``pipeline`` CLI command) is
inlined here as a golden oracle — plain loops over ``prepare_data`` /
``build_*_trainer`` / ``run_cell`` / ``gradient_gap`` exactly as the
functions were written before the scenario layer replaced them, with the
table each one's CLI command (or bench) printed.  The suite then pins,
for the same seeds:

* oracle cells == ``ScenarioRunner`` cells (dataclass equality is exact
  float equality — bit identity);
* identical rendered report tables;
* byte-identical merged traces (the runner adds no events of its own);
* worker count as a pure wall-clock knob (workers>1 and a slow-marked
  ``REPRO_WORKERS=3`` subprocess variant).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.schemes import SCHEME_DESCRIPTIONS, scheme_config
from repro.data.poisoning import backdoor_trigger
from repro.experiments.backdoor import BackdoorCell, attack_success_rate
from repro.experiments.figure2 import PipelineCell
from repro.experiments.figure3 import ConvergenceCell
from repro.experiments.matrix import (
    MatrixCell,
    defence_options_for,
    gradient_gap,
)
from repro.experiments.schemes import SchemeOutcome
from repro.experiments.setup import (
    ExperimentConfig,
    build_abdhfl_trainer,
    build_vanilla_trainer,
    prepare_data,
)
from repro.experiments.table5 import Table5Cell, format_table5, run_cell
from repro.experiments.theorem2 import TolerancePoint
from repro.faults.plan import FaultPlan
from repro.nn.metrics import accuracy
from repro.obs import Tracer, audit, trace
from repro.pipeline.costs import scheme_round_cost
from repro.pipeline.event_run import EventDrivenRun, TimingConfig
from repro.pipeline.overall import overall_efficiency
from repro.scenario import (
    KINDS,
    FaultSpec,
    PipelineSpec,
    ScenarioRunner,
    ScenarioSpec,
    ToleranceSpec,
    TopologySpec,
    accuracy_spec,
    expand_cells,
    matrix_spec,
    render_result,
)
from repro.scenario.kinds import AXES
from repro.sim.latency import FixedLatency, LogNormalLatency
from repro.topology.analysis import max_byzantine_fraction
from repro.topology.tree import build_ecsm
from repro.utils.seeding import iter_run_seeds, seeded_generator
from repro.utils.tables import format_percent, format_table
from test_determinism_subprocess import _run_child

TINY = ExperimentConfig(
    n_levels=2,
    cluster_size=4,
    n_top=2,
    image_side=8,
    samples_per_client=50,
    n_test=200,
    n_rounds=2,
    hidden=(16,),
)


# ----------------------------------------------------------------------
# golden oracles: the pre-refactor sweep bodies, verbatim
# ----------------------------------------------------------------------
def legacy_run_cell(config, n_runs=1):
    abd_scores = []
    van_scores = []
    for run_seed in iter_run_seeds(config.seed, n_runs):
        run_cfg = replace(config, seed=run_seed)
        data = prepare_data(run_cfg)
        abd = build_abdhfl_trainer(run_cfg, data)
        abd.run(run_cfg.n_rounds)
        abd_scores.append(abd.history[-1].test_accuracy)

        van = build_vanilla_trainer(run_cfg, data)
        van.run(run_cfg.n_rounds)
        van_scores.append(van.history[-1].test_accuracy)
    return Table5Cell(
        iid=config.iid,
        attack=config.attack,
        malicious_fraction=config.malicious_fraction,
        abdhfl_accuracy=float(np.mean(abd_scores)),
        vanilla_accuracy=float(np.mean(van_scores)),
        abdhfl_std=float(np.std(abd_scores)),
        vanilla_std=float(np.std(van_scores)),
        n_runs=n_runs,
    )


def legacy_run_table5(base_config, fractions, distributions, attacks, n_runs=1):
    cells = []
    for iid in distributions:
        dist_cfg = base_config.for_distribution(iid)
        for attack in attacks:
            for fraction in fractions:
                cfg = replace(
                    dist_cfg, attack=attack, malicious_fraction=fraction
                )
                cells.append(legacy_run_cell(cfg, n_runs=n_runs))
    return cells


def legacy_run_defence_matrix(
    defences,
    attacks,
    byzantine_fraction=0.25,
    seed=0,
    consensus=None,
    consensus_adversary="none",
    **kwargs,
):
    cells = []
    for defence in defences:
        for attack in attacks:
            gap = gradient_gap(
                defence,
                attack,
                byzantine_fraction=byzantine_fraction,
                seed=seed,
                defence_options=defence_options_for(defence, byzantine_fraction),
                consensus=consensus,
                consensus_adversary=consensus_adversary,
                **kwargs,
            )
            cells.append(
                MatrixCell(
                    defence=defence,
                    attack=attack,
                    byzantine_fraction=byzantine_fraction,
                    gap=gap,
                    consensus=consensus,
                    consensus_adversary=consensus_adversary,
                )
            )
    return cells


def legacy_breakdown_curve(defence, attack, fractions, seed=0, **kwargs):
    cells = []
    for fraction in fractions:
        gap = gradient_gap(
            defence,
            attack if fraction > 0 else "none",
            byzantine_fraction=fraction,
            seed=seed,
            defence_options=defence_options_for(defence, fraction),
            **kwargs,
        )
        cells.append(MatrixCell(defence, attack, fraction, gap))
    return cells


# ----------------------------------------------------------------------
# gradient-estimation equivalence (fast)
# ----------------------------------------------------------------------
MATRIX_KW = dict(
    defences=("median", "trimmed_mean", "krum"),
    attacks=("sign_flip", "scaling"),
    byzantine_fraction=0.25,
    seed=5,
    n_trials=2,
)

ACS_KW = dict(
    defences=("median", "krum"),
    attacks=("sign_flip",),
    byzantine_fraction=0.2,
    n_total=7,
    dim=8,
    n_trials=2,
    seed=3,
    drop_fraction=0.15,
)


class TestDefenceMatrixEquivalence:
    def test_oracle_shim_and_runner_agree(self):
        oracle = legacy_run_defence_matrix(**MATRIX_KW)
        spec = matrix_spec(
            defences=MATRIX_KW["defences"],
            attacks=MATRIX_KW["attacks"],
            fractions=(MATRIX_KW["byzantine_fraction"],),
            seed=MATRIX_KW["seed"],
            n_trials=MATRIX_KW["n_trials"],
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        assert np.array_equal(
            [c.gap for c in oracle], [c.gap for c in result.cells]
        )
        # identical report tables
        assert render_result(spec, oracle) == result.table

    @pytest.mark.parametrize(
        "adversary", ["none", "equivocate", "withhold", "crash_midway"]
    )
    def test_acs_consensus_adversaries(self, adversary):
        kw = dict(ACS_KW, consensus="acs", consensus_adversary=adversary)
        oracle = legacy_run_defence_matrix(**kw)
        spec = matrix_spec(
            defences=kw["defences"],
            attacks=kw["attacks"],
            fractions=(kw["byzantine_fraction"],),
            seed=kw["seed"],
            n_total=kw["n_total"],
            dim=kw["dim"],
            n_trials=kw["n_trials"],
            drop_fraction=kw["drop_fraction"],
            consensus="acs",
            consensus_adversary=adversary,
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        assert all(np.isfinite(c.gap) for c in result.cells)
        assert render_result(spec, oracle) == result.table

    def test_acs_with_fault_plan(self):
        plan = FaultPlan.uniform(drop_probability=0.05, seed=11)
        kw = dict(
            ACS_KW,
            consensus="acs",
            consensus_adversary="equivocate",
            fault_plan=plan,
        )
        oracle = legacy_run_defence_matrix(**kw)
        spec = matrix_spec(
            defences=kw["defences"],
            attacks=kw["attacks"],
            fractions=(kw["byzantine_fraction"],),
            seed=kw["seed"],
            n_total=kw["n_total"],
            dim=kw["dim"],
            n_trials=kw["n_trials"],
            drop_fraction=kw["drop_fraction"],
            consensus="acs",
            consensus_adversary="equivocate",
            faults=FaultSpec(seed=11, drop_probability=0.05),
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells

    def test_workers_are_a_pure_wall_clock_knob(self):
        spec = matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip", "scaling"),
            fractions=(0.25,),
            n_trials=2,
        )
        serial = ScenarioRunner(workers=1).run(spec)
        sharded = ScenarioRunner(workers=2).run(spec)
        assert serial.cells == sharded.cells
        assert serial.table == sharded.table


class TestBreakdownEquivalence:
    def test_oracle_shim_and_runner_agree(self):
        fractions = (0.0, 0.2, 0.4)
        oracle = legacy_breakdown_curve(
            "trimmed_mean", "sign_flip", fractions, seed=4, n_trials=2
        )
        spec = matrix_spec(
            kind="breakdown_curve",
            defences=("trimmed_mean",),
            attacks=("sign_flip",),
            fractions=fractions,
            seed=4,
            n_trials=2,
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        # fraction 0 measured the clean baseline but kept the attack label
        assert result.cells[0].attack == "sign_flip"
        assert render_result(spec, oracle) == result.table


class TestTraceEquivalence:
    def test_oracle_and_runner_traces_are_byte_identical(self):
        """The runner emits no events of its own: a spec-driven sweep's
        merged trace serialises to exactly the oracle loop's trace."""

        def oracle_jsonl() -> str:
            with trace.scoped(Tracer()) as tr:
                legacy_run_defence_matrix(
                    defences=("median", "krum"),
                    attacks=("sign_flip",),
                    n_trials=1,
                )
            assert tr.events, "traced sweep recorded nothing"
            return tr.to_jsonl()

        def runner_jsonl(workers: int) -> str:
            spec = matrix_spec(
                defences=("median", "krum"),
                attacks=("sign_flip",),
                fractions=(0.25,),
                n_trials=1,
            )
            with trace.scoped(Tracer()) as tr:
                ScenarioRunner(workers=workers).run(spec)
            assert tr.events, "traced sweep recorded nothing"
            return tr.to_jsonl()

        assert oracle_jsonl() == runner_jsonl(1)

    @pytest.mark.slow
    def test_trace_byte_identity_survives_fan_out(self):
        def runner_jsonl(workers: int) -> str:
            spec = matrix_spec(
                defences=("median", "krum"),
                attacks=("sign_flip",),
                fractions=(0.25,),
                n_trials=1,
            )
            with trace.scoped(Tracer()) as tr:
                ScenarioRunner(workers=workers).run(spec)
            return tr.to_jsonl()

        assert runner_jsonl(1) == runner_jsonl(2)


# ----------------------------------------------------------------------
# trainer-based (accuracy grid) equivalence
# ----------------------------------------------------------------------
TABLE5_KW = dict(
    fractions=(0.0, 0.5),
    distributions=(True,),
    attacks=("type1",),
    n_runs=1,
)


class TestTable5Equivalence:
    def test_oracle_shim_and_runner_agree(self):
        oracle = legacy_run_table5(TINY, **TABLE5_KW)
        spec = accuracy_spec(
            TINY,
            fractions=TABLE5_KW["fractions"],
            distributions=("iid",),
            attacks=TABLE5_KW["attacks"],
            n_runs=1,
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        assert np.array_equal(
            [c.abdhfl_accuracy for c in oracle],
            [c.abdhfl_accuracy for c in result.cells],
        )
        assert np.array_equal(
            [c.vanilla_accuracy for c in oracle],
            [c.vanilla_accuracy for c in result.cells],
        )
        # identical report tables, through both renderers
        assert format_table5(oracle) == result.table
        assert render_result(spec, oracle) == result.table

    @pytest.mark.slow
    def test_workers_are_a_pure_wall_clock_knob(self):
        spec = accuracy_spec(
            TINY,
            fractions=(0.0, 0.5),
            distributions=("iid",),
            attacks=("type1",),
        )
        serial = ScenarioRunner(workers=1).run(spec)
        sharded = ScenarioRunner(workers=2).run(spec)
        assert serial.cells == sharded.cells
        assert serial.table == sharded.table


# ----------------------------------------------------------------------
# the five artefacts that had their own loop + CLI printer
# ----------------------------------------------------------------------
def tiny_spec(kind, fractions, config=TINY, **changes):
    """A ``config``-scale IID / Type I spec of ``kind``."""
    return replace(
        accuracy_spec(
            config,
            name=f"tiny-{kind}",
            fractions=fractions,
            distributions=("iid",),
            attacks=("type1",),
        ),
        kind=kind,
        **changes,
    ).validate()


def legacy_figure3(spec):
    """``run_figure3`` + the ``figure3`` CLI printer."""
    config = replace(
        TINY.for_distribution(True),
        attack="type1",
        malicious_fraction=spec.fractions[0],
    )
    abd_runs = []
    van_runs = []
    for run_seed in iter_run_seeds(config.seed, spec.n_runs):
        run_cfg = replace(config, seed=run_seed)
        data = prepare_data(run_cfg)
        abd = build_abdhfl_trainer(run_cfg, data)
        abd.run(run_cfg.n_rounds)
        abd_runs.append([r.test_accuracy for r in abd.history])
        van = build_vanilla_trainer(run_cfg, data)
        van.run(run_cfg.n_rounds)
        van_runs.append([r.test_accuracy for r in van.history])
    abd_mean = np.asarray(abd_runs).mean(axis=0)
    van_mean = np.asarray(van_runs).mean(axis=0)
    lines = []
    for r in range(0, len(abd_mean), max(1, len(abd_mean) // 12)):
        lines.append(
            f"round {r:4d}: ABD-HFL {format_percent(abd_mean[r])} "
            f"vanilla {format_percent(van_mean[r])}"
        )
    lines.append(
        f"final: ABD-HFL {format_percent(float(abd_mean[-1]))} vs "
        f"vanilla {format_percent(float(van_mean[-1]))}"
    )
    cell = ConvergenceCell(
        iid=True,
        attack="type1",
        malicious_fraction=spec.fractions[0],
        abdhfl_runs=tuple(map(tuple, abd_runs)),
        vanilla_runs=tuple(map(tuple, van_runs)),
    )
    return [cell], "\n".join(lines)


def legacy_schemes(spec):
    """``run_scheme_comparison`` + the ``schemes`` CLI printer."""
    config = replace(TINY, malicious_fraction=spec.fractions[0])
    outcomes = []
    for scheme in spec.schemes:
        cfg = replace(config)
        data = prepare_data(cfg)
        abd_config = scheme_config(
            scheme,
            bra_name=cfg.partial_aggregator,
            bra_options=cfg.partial_options,
            cba_name="voting",
            training=cfg.training_config(),
        )
        trainer = build_abdhfl_trainer(cfg, data, abdhfl_config=abd_config)
        trainer.run(cfg.n_rounds)
        measured = [r.model_messages for r in trainer.history]
        analytic = scheme_round_cost(data.hierarchy, scheme)
        desc = SCHEME_DESCRIPTIONS[scheme]
        outcomes.append(
            SchemeOutcome(
                scheme=scheme,
                partial_kind=desc["partial"].upper(),
                global_kind=desc["global"].upper(),
                final_accuracy=trainer.history[-1].test_accuracy,
                measured_model_messages_per_round=float(
                    sum(measured) / max(1, len(measured))
                ),
                analytic_model_messages=analytic.cost.model_messages,
                analytic_scalar_messages=analytic.cost.scalar_messages,
            )
        )
    rows = [
        [
            o.scheme,
            f"{o.partial_kind}/{o.global_kind}",
            format_percent(o.final_accuracy),
            o.analytic_model_messages,
            o.analytic_scalar_messages,
        ]
        for o in outcomes
    ]
    table = format_table(
        ["scheme", "partial/global", "accuracy", "model msgs", "scalar msgs"],
        rows,
    )
    return outcomes, table


def legacy_backdoor(spec):
    """``run_backdoor`` + the backdoor bench's table."""
    config = replace(TINY, malicious_fraction=spec.fractions[0])
    base = replace(config, attack="none")
    data = prepare_data(base)
    rng = seeded_generator(base.seed + 1)
    for cid in data.byzantine:
        data.client_datasets[cid] = backdoor_trigger(
            data.client_datasets[cid],
            target_label=7,
            trigger_value=1.5,
            n_trigger_features=4,
            poison_fraction=1.0,
            rng=rng,
        )
    outcomes = []
    for builder in (build_abdhfl_trainer, build_vanilla_trainer):
        trainer = builder(base, data)
        trainer.run(base.n_rounds)
        eval_model = data.model_template.clone()
        eval_model.set_flat(trainer.global_model)
        clean = accuracy(eval_model.predict(data.test_set.X), data.test_set.y)
        asr = attack_success_rate(
            eval_model, trainer.global_model, data.test_set, 7
        )
        outcomes.append((clean, asr))
    (abd_clean, abd_asr), (van_clean, van_asr) = outcomes
    table = format_table(
        ["system", "clean accuracy", "attack success rate"],
        [
            ["ABD-HFL", format_percent(abd_clean), format_percent(abd_asr)],
            ["Vanilla FL", format_percent(van_clean), format_percent(van_asr)],
        ],
        title=f"Backdoor trigger, {format_percent(spec.fractions[0])} "
        "adversaries (target label 7)",
    )
    cell = BackdoorCell(
        malicious_fraction=spec.fractions[0],
        abdhfl_accuracy=abd_clean,
        abdhfl_asr=abd_asr,
        vanilla_accuracy=van_clean,
        vanilla_asr=van_asr,
    )
    return [cell], table


def legacy_tolerance(spec):
    """``run_theorem2`` + the ``tolerance --empirical`` CLI printer."""
    gamma1, gamma2 = spec.tolerance.gamma1, spec.tolerance.gamma2
    config = TINY
    bound = max_byzantine_fraction(gamma1, gamma2, config.n_levels - 1)
    points = []
    for fraction in spec.fractions:
        cfg = replace(config, malicious_fraction=fraction)
        data = prepare_data(cfg)
        trainer = build_abdhfl_trainer(cfg, data)
        trainer.run(cfg.n_rounds)
        points.append(
            TolerancePoint(
                malicious_fraction=fraction,
                accuracy=trainer.history[-1].test_accuracy,
                below_bound=fraction <= bound,
            )
        )
    rows = [
        [level, format_percent(max_byzantine_fraction(gamma1, gamma2, level), 4)]
        for level in range(5)
    ]
    out = [
        format_table(
            ["bottom level", "max tolerated Byzantine"],
            rows,
            title=f"Theorem 2 (gamma1={gamma1}, gamma2={gamma2})",
        ),
        f"\nempirical sweep (bound {format_percent(bound, 4)}):",
    ]
    for p in points:
        marker = "" if p.below_bound else "  <-- above bound"
        out.append(
            f"  {format_percent(p.malicious_fraction):>6}: "
            f"{format_percent(p.accuracy)}{marker}"
        )
    return points, "\n".join(out)


def legacy_pipeline(spec):
    """The ``pipeline`` CLI command's body and printer."""
    hierarchy = build_ecsm(n_levels=3, cluster_size=4, n_top=4)
    config = TimingConfig(
        local_compute=LogNormalLatency(median=10.0, sigma=0.3),
        partial_aggregate=FixedLatency(1.0),
        global_aggregate=FixedLatency(spec.pipeline.global_delay),
        link=FixedLatency(0.2),
    )
    run = EventDrivenRun(
        hierarchy, config, flag_level=spec.pipeline.flag_level, seed=spec.seed
    )
    timings = run.run(spec.pipeline.n_rounds)
    result = overall_efficiency(timings)
    out = [
        f"overall efficiency (time-weighted): {result.time_weighted:.3f}",
        f"plain mean of per-cluster nu:       {result.unweighted_mean:.3f}",
        f"total waiting / overlapped time:    {result.total_waiting:.1f} / "
        f"{result.total_overlapped:.1f}",
        "network traffic:",
        run.channel.stats.summary(),
    ]
    cell = PipelineCell(
        flag_level=spec.pipeline.flag_level,
        global_delay=spec.pipeline.global_delay,
        n_rounds=spec.pipeline.n_rounds,
        time_weighted=result.time_weighted,
        unweighted_mean=result.unweighted_mean,
        total_waiting=result.total_waiting,
        total_overlapped=result.total_overlapped,
        traffic=run.channel.stats.summary(),
    )
    return [cell], "\n".join(out)


ARTEFACTS = {
    "convergence": (tiny_spec("convergence", (0.5,), n_runs=2), legacy_figure3),
    "scheme_comparison": (
        tiny_spec("scheme_comparison", (0.25,), schemes=(1, 2, 3, 4)),
        legacy_schemes,
    ),
    "backdoor": (
        tiny_spec("backdoor", (0.25,), attacks=("backdoor",)),
        legacy_backdoor,
    ),
    "tolerance_sweep": (
        tiny_spec(
            "tolerance_sweep", (0.0, 0.5), tolerance=ToleranceSpec(0.25, 0.25)
        ),
        legacy_tolerance,
    ),
    "pipeline_timing": (
        ScenarioSpec(
            name="tiny-pipeline",
            kind="pipeline_timing",
            seed=2024,
            topology=TopologySpec(),
            pipeline=PipelineSpec(flag_level=1, global_delay=25.0, n_rounds=5),
        ).validate(),
        legacy_pipeline,
    ),
}


@pytest.mark.parametrize("kind", sorted(ARTEFACTS))
class TestArtefactEquivalence:
    def test_oracle_and_runner_agree(self, kind):
        spec, oracle = ARTEFACTS[kind]
        cells, table = oracle(spec)
        result = ScenarioRunner(workers=1).run(spec)
        assert cells == result.cells
        assert table == result.table

    def test_oracle_and_runner_traces_are_byte_identical(self, kind):
        """The merged trace is the per-cell oracle traces back to back:
        every cell records into its own scope (as a worker would), so the
        oracle runs one single-cell spec per scope."""
        spec, oracle = ARTEFACTS[kind]
        axes = KINDS[kind].axes
        oracle_jsonl = ""
        for cell in expand_cells(spec):
            one = {axis: (getattr(cell, AXES[axis]),) for axis in axes}
            with trace.scoped(Tracer()) as tr:
                oracle(replace(spec, **one))
            assert tr.events, "traced cell recorded nothing"
            oracle_jsonl += tr.to_jsonl()
        with trace.scoped(Tracer()) as runner_tr:
            ScenarioRunner(workers=1).run(spec)
        assert oracle_jsonl == runner_tr.to_jsonl()

    def test_observed_run_equals_plain(self, kind):
        spec, _ = ARTEFACTS[kind]
        plain = ScenarioRunner(workers=1).run(spec)
        with trace.scoped(Tracer()), audit.scoped(audit.Auditor()):
            observed = ScenarioRunner(workers=1).run(spec)
        assert plain.cells == observed.cells

    @pytest.mark.slow
    def test_workers_are_a_pure_wall_clock_knob(self, kind):
        spec, _ = ARTEFACTS[kind]
        serial = ScenarioRunner(workers=1).run(spec)
        sharded = ScenarioRunner(workers=2).run(spec)
        assert serial.cells == sharded.cells
        assert serial.table == sharded.table


# ----------------------------------------------------------------------
# REPRO_WORKERS=3 subprocess variant (slow)
# ----------------------------------------------------------------------
SCENARIO_CHILD = """
import hashlib
import numpy as np
from repro.experiments import ExperimentConfig
from repro.scenario import ScenarioRunner, accuracy_spec, matrix_spec

digest = hashlib.sha256()

spec = matrix_spec(
    defences=("median", "trimmed_mean", "krum"),
    attacks=("sign_flip", "scaling"),
    fractions=(0.25,),
    seed=5,
    n_trials=2,
)
for c in ScenarioRunner().run(spec).cells:
    digest.update(np.float64(c.gap).tobytes())

cfg = ExperimentConfig(
    n_levels=2, cluster_size=4, n_top=2, image_side=8,
    samples_per_client=50, n_test=200, n_rounds=2, hidden=(16,),
)
acc = accuracy_spec(
    cfg, fractions=(0.0, 0.5), distributions=("iid",), attacks=("type1",),
)
for c in ScenarioRunner().run(acc).cells:
    digest.update(np.float64(c.malicious_fraction).tobytes())
    digest.update(np.float64(c.abdhfl_accuracy).tobytes())
    digest.update(np.float64(c.vanilla_accuracy).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.slow
def test_scenario_runner_bit_identical_under_repro_workers_3():
    """End to end through the environment gate: ``REPRO_WORKERS=3`` must
    hash the scenario-driven sweeps exactly like the serial baseline."""
    assert _run_child(SCENARIO_CHILD, workers=3) == _run_child(
        SCENARIO_CHILD, workers=1
    )
