"""Scenario-spec contract: round-trip identity, path-named validation
errors and deterministic grid expansion."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.setup import ExperimentConfig
from repro.faults.plan import FaultPlan, LinkFaults
from repro.scenario import (
    FaultSpec,
    ScenarioSpec,
    accuracy_spec,
    dumps_toml,
    expand_cells,
    load_shipped_spec,
    loads_scenario,
    matrix_spec,
    shipped_spec_names,
)
from repro.utils.seeding import derive_seed

# ----------------------------------------------------------------------
# seeded spec generator for property-style round-trip tests
# ----------------------------------------------------------------------
DEFENCES = ("fedavg", "median", "trimmed_mean", "krum", "multikrum", "geomed")
MODEL_ATTACKS = ("none", "sign_flip", "gaussian_noise", "alie", "ipm", "scaling")
DATA_ATTACKS = ("none", "type1", "type2", "label_flip", "backdoor")


def random_spec(rng: np.random.Generator) -> ScenarioSpec:
    """One random-but-valid spec of a random kind."""
    kind = rng.choice(["accuracy_grid", "defence_matrix", "breakdown_curve"])
    seed = int(rng.integers(0, 10_000))
    seed_policy = str(rng.choice(["shared", "derived"]))
    if kind == "accuracy_grid":
        return accuracy_spec(
            name=f"acc-{seed}",
            fractions=tuple(
                sorted(float(round(f, 3)) for f in rng.uniform(0, 0.99, 3))
            ),
            distributions=("iid", "noniid")[: int(rng.integers(1, 3))],
            attacks=tuple(
                rng.choice(DATA_ATTACKS, size=int(rng.integers(1, 3)), replace=False)
            ),
            n_runs=int(rng.integers(1, 4)),
            seed=seed,
            seed_policy=seed_policy,
        )
    n_defences = 1 if kind == "breakdown_curve" else int(rng.integers(1, 4))
    n_attacks = 1 if kind == "breakdown_curve" else int(rng.integers(1, 4))
    use_acs = bool(rng.integers(0, 2))
    return matrix_spec(
        name=f"grad-{seed}",
        kind=kind,
        defences=tuple(
            rng.choice(DEFENCES, size=n_defences, replace=False)
        ),
        attacks=tuple(
            rng.choice(MODEL_ATTACKS, size=n_attacks, replace=False)
        ),
        fractions=tuple(
            sorted(float(round(f, 3)) for f in rng.uniform(0, 0.49, 2))
        ),
        seed=seed,
        seed_policy=seed_policy,
        n_total=int(rng.integers(4, 30)),
        dim=int(rng.integers(2, 64)),
        n_trials=int(rng.integers(1, 8)),
        consensus="acs" if use_acs else None,
        consensus_adversary=(
            str(rng.choice(["none", "equivocate", "withhold"])) if use_acs else "none"
        ),
        faults=(
            FaultSpec(seed=seed, drop_probability=0.05) if use_acs else None
        ),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("case", range(20))
    def test_dataclass_toml_dataclass_is_identity(self, case):
        rng = np.random.default_rng(1000 + case)
        spec = random_spec(rng)
        assert loads_scenario(dumps_toml(spec.to_dict())) == spec

    @pytest.mark.parametrize("case", range(20))
    def test_dict_round_trip_is_identity(self, case):
        rng = np.random.default_rng(2000 + case)
        spec = random_spec(rng)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_toml_integers_read_back_as_fractions(self):
        # TOML writes 0.0 as "0.0"; an author writing "0" must get the
        # same spec (int -> float coercion in from_dict).
        spec = loads_scenario(
            'name = "t"\nkind = "breakdown_curve"\n'
            'defences = ["median"]\nattacks = ["sign_flip"]\n'
            "fractions = [0, 0.2]\n"
        )
        assert spec.fractions == (0.0, 0.2)

    def test_shipped_specs_all_round_trip(self):
        names = shipped_spec_names()
        assert set(names) >= {
            "table5",
            "defence_matrix",
            "defence_matrix_acs",
            "breakdown_krum_alie",
            "smoke",
            "figure3",
            "schemes",
            "backdoor",
            "tolerance",
            "pipeline",
            "table5_paper",
        }
        for name in names:
            spec = load_shipped_spec(name)
            assert loads_scenario(dumps_toml(spec.to_dict())) == spec

    def test_fault_spec_round_trips_through_plan(self):
        fs = FaultSpec(seed=11, drop_probability=0.05, reorder_jitter=1.5)
        assert FaultSpec.from_plan(fs.to_plan()) == fs

    def test_non_uniform_plan_rejected(self):
        plan = FaultPlan(per_link={(0, 1): LinkFaults(drop_probability=0.5)})
        with pytest.raises(ValueError, match="faults.*uniform"):
            FaultSpec.from_plan(plan)


class TestValidationNamesThePath:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="wibble"):
            loads_scenario(
                'name = "x"\nkind = "defence_matrix"\n'
                'defences = ["median"]\nattacks = ["sign_flip"]\n'
                "fractions = [0.2]\nwibble = 3\n"
            )

    def test_unknown_nested_key_names_the_table(self):
        with pytest.raises(ValueError, match=r"estimation\.wobble"):
            loads_scenario(
                'name = "x"\nkind = "defence_matrix"\n'
                'defences = ["median"]\nattacks = ["sign_flip"]\n'
                "fractions = [0.2]\n[estimation]\nwobble = 3\n"
            )

    def test_bad_kind_enum(self):
        with pytest.raises(ValueError, match="kind.*sweep_matrix"):
            ScenarioSpec(name="x", kind="sweep_matrix").validate()

    def test_bad_defence_names_index(self):
        with pytest.raises(ValueError, match=r"defences\[1\].*meen"):
            matrix_spec(
                defences=("median", "trimmed_meen"),
                attacks=("sign_flip",),
                fractions=(0.2,),
            )

    def test_bad_attack_names_index(self):
        with pytest.raises(ValueError, match=r"attacks\[0\].*gaussian"):
            matrix_spec(
                defences=("median",),
                attacks=("gaussian", "sign_flip"),
                fractions=(0.2,),
            )

    def test_gradient_fraction_at_half_rejected_with_path(self):
        with pytest.raises(ValueError, match=r"fractions\[1\].*\[0, 0.5\)"):
            matrix_spec(
                defences=("median",),
                attacks=("sign_flip",),
                fractions=(0.2, 0.5),
            )

    def test_accuracy_fraction_past_paper_bound_allowed(self):
        spec = accuracy_spec(fractions=(0.578, 0.65))
        assert spec.fractions == (0.578, 0.65)
        with pytest.raises(ValueError, match=r"fractions\[0\]"):
            accuracy_spec(fractions=(1.0,))

    def test_bad_consensus_backend(self):
        with pytest.raises(ValueError, match="consensus.*raft"):
            matrix_spec(
                defences=("median",),
                attacks=("sign_flip",),
                fractions=(0.2,),
                consensus="raft",
            )

    def test_adversary_requires_acs(self):
        with pytest.raises(ValueError, match="consensus_adversary"):
            matrix_spec(
                defences=("median",),
                attacks=("sign_flip",),
                fractions=(0.2,),
                consensus="voting",
                consensus_adversary="equivocate",
            )

    def test_faults_require_acs(self):
        with pytest.raises(ValueError, match="faults"):
            matrix_spec(
                defences=("median",),
                attacks=("sign_flip",),
                fractions=(0.2,),
                faults=FaultSpec(drop_probability=0.1),
            )

    def test_kind_irrelevant_fields_rejected(self):
        # a gradient-kind field on an accuracy grid names itself
        spec = dataclasses.replace(
            accuracy_spec(fractions=(0.2,)), drop_fraction=0.1
        )
        with pytest.raises(ValueError, match="drop_fraction"):
            spec.validate()

    def test_bad_seed_policy(self):
        with pytest.raises(ValueError, match="seed_policy"):
            matrix_spec(
                defences=("median",),
                attacks=("sign_flip",),
                fractions=(0.2,),
                seed_policy="random",
            )

    def test_pipeline_flag_level_must_sit_above_the_bottom_level(self):
        spec = dataclasses.replace(
            load_shipped_spec("pipeline"),
            topology=dataclasses.replace(
                load_shipped_spec("pipeline").topology, n_levels=2
            ),
        )
        with pytest.raises(ValueError, match=r"pipeline\.flag_level"):
            spec.validate()

    def test_single_axes_take_exactly_one_value(self):
        spec = dataclasses.replace(
            load_shipped_spec("tolerance"), attacks=("type1", "type2")
        )
        with pytest.raises(ValueError, match="attacks.*exactly one"):
            spec.validate()

    def test_backdoor_kind_only_takes_the_backdoor_attack(self):
        spec = dataclasses.replace(load_shipped_spec("backdoor"), attacks=("type1",))
        with pytest.raises(ValueError, match=r"attacks\[0\].*type1"):
            spec.validate()

    def test_breakdown_needs_single_pair(self):
        with pytest.raises(ValueError, match="defences"):
            matrix_spec(
                kind="breakdown_curve",
                defences=("median", "krum"),
                attacks=("sign_flip",),
                fractions=(0.2,),
            )


class TestGridExpansion:
    def test_cell_count_and_ordering_accuracy(self):
        spec = accuracy_spec(
            fractions=(0.0, 0.3),
            distributions=("iid", "noniid"),
            attacks=("type1", "type2"),
        )
        cells = expand_cells(spec)
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        # paper row order: distribution-major, then attack, then fraction
        assert [(c.distribution, c.attack, c.fraction) for c in cells[:4]] == [
            ("iid", "type1", 0.0),
            ("iid", "type1", 0.3),
            ("iid", "type2", 0.0),
            ("iid", "type2", 0.3),
        ]

    def test_cell_ordering_matrix_matches_legacy(self):
        spec = matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip", "ipm"),
            fractions=(0.25,),
        )
        assert [(c.defence, c.attack) for c in expand_cells(spec)] == [
            ("median", "sign_flip"),
            ("median", "ipm"),
            ("krum", "sign_flip"),
            ("krum", "ipm"),
        ]

    def test_expansion_is_deterministic(self):
        spec = matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip",),
            fractions=(0.1, 0.3),
        )
        assert expand_cells(spec) == expand_cells(spec)

    def test_shared_policy_hands_every_cell_the_root_seed(self):
        spec = matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip",),
            fractions=(0.2,),
            seed=77,
        )
        assert [c.seed for c in expand_cells(spec)] == [77, 77]

    def test_derived_policy_uses_derive_seed(self):
        spec = matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip",),
            fractions=(0.2,),
            seed=77,
            seed_policy="derived",
        )
        cells = expand_cells(spec)
        assert [c.seed for c in cells] == [
            derive_seed(77, "cell", 0),
            derive_seed(77, "cell", 1),
        ]
        assert len({c.seed for c in cells}) == 2


class TestBuilders:
    def test_accuracy_spec_reproduces_config(self):
        cfg = ExperimentConfig(n_levels=2, n_rounds=3, hidden=(8,), seed=9)
        spec = accuracy_spec(cfg, fractions=(0.2,))
        rebuilt = spec.base_experiment_config()
        # per-cell fields are grid concerns; everything else survives
        assert rebuilt == dataclasses.replace(
            cfg,
            iid=True,
            attack="type1",
            malicious_fraction=0.0,
            partial_aggregator="multikrum",
            partial_options={"byzantine_fraction": 0.25},
        )
