"""Declarative scenario layer: experiments as data, one orchestrator.

A :class:`ScenarioSpec` (TOML- or dict-described topology, data
distribution, adversary axes, consensus backend + adversary, fault plan,
seeds) is expanded into an ordered cell grid and executed by
:class:`ScenarioRunner` through the single-cell primitives of
:mod:`repro.experiments` with `repro.parallel` fan-out and `repro.obs`
tracing.  Every paper artefact is a canonical spec shipped in
``repro/scenario/specs/*.toml``; what a spec's ``kind`` means lives in
one table (:data:`repro.scenario.kinds.KINDS`), and
``tests/test_scenario_equivalence.py`` pins each kind bit-identical to a
plain loop over its primitive.  A run is persisted only as a run
directory (:mod:`repro.scenario.rundir`).
"""

from repro.scenario.grid import ScenarioCell
from repro.scenario.io import (
    dump_scenario,
    dumps_toml,
    load_scenario,
    loads_scenario,
)
from repro.scenario.kinds import (
    DATA_ATTACKS,
    KINDS,
    Kind,
    expand_cells,
    render_result,
)
from repro.scenario.runner import (
    ScenarioResult,
    ScenarioRunner,
    load_shipped_spec,
    resolve_spec,
    run_scenario,
    shipped_spec_names,
)
from repro.scenario.spec import (
    PLACEMENTS,
    SEED_POLICIES,
    DataSpec,
    EstimationSpec,
    FaultSpec,
    PipelineSpec,
    ScenarioSpec,
    ToleranceSpec,
    TopologySpec,
    TrainingSpec,
    accuracy_spec,
    matrix_spec,
)

__all__ = [
    "KINDS",
    "Kind",
    "DATA_ATTACKS",
    "PLACEMENTS",
    "SEED_POLICIES",
    "TopologySpec",
    "DataSpec",
    "TrainingSpec",
    "EstimationSpec",
    "FaultSpec",
    "ToleranceSpec",
    "PipelineSpec",
    "ScenarioSpec",
    "ScenarioCell",
    "ScenarioResult",
    "ScenarioRunner",
    "accuracy_spec",
    "matrix_spec",
    "expand_cells",
    "load_scenario",
    "loads_scenario",
    "dump_scenario",
    "dumps_toml",
    "render_result",
    "run_scenario",
    "shipped_spec_names",
    "load_shipped_spec",
    "resolve_spec",
]
