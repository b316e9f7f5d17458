"""Every row of the kind table is complete: it has a shipped spec, the
shipped specs validate and round-trip, and a tiny instance of the kind
expands, runs and renders.  (This replaces abdlint REG001's scenario
section, which policed hand-mirrored ``spec.kind`` branches.)"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.setup import ExperimentConfig
from repro.scenario import (
    KINDS,
    DataSpec,
    EstimationSpec,
    PipelineSpec,
    TopologySpec,
    TrainingSpec,
    dumps_toml,
    expand_cells,
    load_shipped_spec,
    loads_scenario,
    run_scenario,
    shipped_spec_names,
)

SHIPPED = {name: load_shipped_spec(name) for name in shipped_spec_names()}

#: Overrides shrinking a shipped spec to a sub-second instance; only the
#: sections its kind uses are applied.
TINY = dict(
    topology=TopologySpec(n_levels=3, cluster_size=2, n_top=2),
    data=DataSpec(image_side=8, samples_per_client=50, n_test=200),
    training=TrainingSpec(hidden=(16,), n_rounds=2),
    estimation=EstimationSpec(n_total=8, dim=8, n_trials=1),
    pipeline=PipelineSpec(n_rounds=4),
)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestEveryKind:
    def test_has_a_shipped_spec(self, kind):
        assert any(spec.kind == kind for spec in SHIPPED.values())

    def test_tiny_instance_expands_runs_and_renders(self, kind):
        shipped = next(s for s in SHIPPED.values() if s.kind == kind)
        tiny = {
            name: section
            for name, section in TINY.items()
            if name in KINDS[kind].sections
        }
        if "fractions" in KINDS[kind].axes:
            tiny["fractions"] = shipped.fractions[:2]
        spec = replace(shipped, **tiny).validate()
        result = run_scenario(spec)
        assert len(result.cells) == len(expand_cells(spec)) >= 1
        assert [c.index for c in result.grid] == list(range(len(result.cells)))
        assert result.table.strip()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_spec_validates_and_round_trips(name):
    spec = SHIPPED[name].validate()
    assert spec.kind in KINDS
    assert loads_scenario(dumps_toml(spec.to_dict())) == spec


def test_paper_scale_spec_carries_the_appendix_d_configuration():
    assert (
        load_shipped_spec("table5_paper").base_experiment_config()
        == ExperimentConfig.paper_scale()
    )
