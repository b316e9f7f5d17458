"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the data-only description of one experiment
grid: topology, data distribution, training knobs, the adversary axes
(attacks x defences x fractions x distributions x schemes), consensus
backend and consensus-level adversary, fault plan, and seeds.  Specs are
frozen dataclasses with a strict dict/TOML round-trip
(:mod:`repro.scenario.io`) and registry-backed validation — every name a
spec mentions (aggregator, attack, consensus backend, consensus
adversary, fault-plan field) is checked against the registry that will
ultimately construct it, and every error names the offending path
(``"fractions[2]: must be in [0, 0.5), got 0.6"``).

What a spec's ``kind`` means — which axes span its grid, which sections
apply, the fraction range and attack vocabulary, how a cell is computed
and how the result is rendered — is one row of
:data:`repro.scenario.kinds.KINDS`; this module only checks membership
and reads the row.

Seed semantics: ``seed_policy="shared"`` (the golden-equivalence
baseline) hands every cell the spec's root seed; ``"derived"`` gives
cell ``i`` the stable child seed ``derive_seed(seed, "cell", i)`` so
cells draw independent streams.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from math import isfinite
from typing import Any, Callable, Mapping

from repro.aggregation.base import available_aggregators
from repro.consensus.async_bft.adversary import ADVERSARIES
from repro.consensus.registry import CONSENSUS_NAMES
from repro.core.schemes import SCHEME_DESCRIPTIONS
from repro.experiments.setup import ExperimentConfig
from repro.faults.plan import FaultPlan
from repro.scenario.kinds import AXES, KINDS, Kind

__all__ = [
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
    "accuracy_spec",
    "matrix_spec",
]

#: Byzantine placement strategies (:func:`repro.topology.tree.assign_byzantine`).
PLACEMENTS = ("random", "prefix", "spread", "worst_case")

SEED_POLICIES = ("shared", "derived")


def _fail(path: str, message: str) -> None:
    raise ValueError(f"{path}: {message}")


@dataclass(frozen=True)
class TopologySpec:
    """The ECSM tree shape (Appendix D: 3 levels, cluster 4, 4 top)."""

    n_levels: int = 3
    cluster_size: int = 4
    n_top: int = 4

    def validate(self, where: str = "topology") -> None:
        if self.n_levels < 2:
            _fail(f"{where}.n_levels", f"must be >= 2, got {self.n_levels}")
        if self.cluster_size < 2:
            _fail(f"{where}.cluster_size", f"must be >= 2, got {self.cluster_size}")
        if self.n_top < 1:
            _fail(f"{where}.n_top", f"must be >= 1, got {self.n_top}")


@dataclass(frozen=True)
class DataSpec:
    """Synthetic-MNIST generation and partitioning knobs."""

    image_side: int = 12
    samples_per_client: int = 240
    n_test: int = 1_000
    noniid_kind: str = "shards"
    dirichlet_alpha: float = 0.5

    def validate(self, where: str = "data") -> None:
        for name in ("image_side", "samples_per_client", "n_test"):
            value = getattr(self, name)
            if value < 1:
                _fail(f"{where}.{name}", f"must be >= 1, got {value}")
        if self.noniid_kind not in ("shards", "dirichlet"):
            _fail(
                f"{where}.noniid_kind",
                f"unknown non-IID flavour {self.noniid_kind!r}; "
                "expected 'shards' or 'dirichlet'",
            )
        if not (isfinite(self.dirichlet_alpha) and self.dirichlet_alpha > 0):
            _fail(
                f"{where}.dirichlet_alpha",
                f"must be a positive finite float, got {self.dirichlet_alpha}",
            )


@dataclass(frozen=True)
class TrainingSpec:
    """Model and local-SGD knobs shared by both trainers."""

    hidden: tuple[int, ...] = (32,)
    n_rounds: int = 30
    local_iterations: int = 5
    batch_size: int = 64
    learning_rate: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def validate(self, where: str = "training") -> None:
        for i, width in enumerate(self.hidden):
            if width < 1:
                _fail(f"{where}.hidden[{i}]", f"must be >= 1, got {width}")
        for name in ("n_rounds", "local_iterations", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                _fail(f"{where}.{name}", f"must be >= 1, got {value}")
        if not (isfinite(self.learning_rate) and self.learning_rate > 0):
            _fail(
                f"{where}.learning_rate",
                f"must be a positive finite float, got {self.learning_rate}",
            )


@dataclass(frozen=True)
class EstimationSpec:
    """Gradient-estimation abstraction knobs (defence matrix / breakdown)."""

    n_total: int = 20
    dim: int = 64
    noise: float = 0.5
    n_trials: int = 8

    def validate(self, where: str = "estimation") -> None:
        for name in ("n_total", "dim", "n_trials"):
            value = getattr(self, name)
            if value < 1:
                _fail(f"{where}.{name}", f"must be >= 1, got {value}")
        if not (isfinite(self.noise) and self.noise > 0):
            _fail(
                f"{where}.noise",
                f"must be a positive finite float, got {self.noise}",
            )


@dataclass(frozen=True)
class FaultSpec:
    """The TOML-expressible (uniform) subset of a :class:`FaultPlan`.

    Per-link overrides, partitions and crash schedules are code-level
    constructs; a declarative scenario carries the uniform link-fault
    rates plus the retry/timeout knobs, which is exactly what the
    defence-matrix consensus axis exercises.
    """

    seed: int = 0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_jitter: float = 0.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    leader_timeout: float = 30.0

    def to_plan(self) -> FaultPlan:
        """Materialise the uniform :class:`FaultPlan` this spec describes."""
        return FaultPlan.uniform(
            drop_probability=self.drop_probability,
            duplicate_probability=self.duplicate_probability,
            reorder_jitter=self.reorder_jitter,
            seed=self.seed,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            leader_timeout=self.leader_timeout,
        )

    @classmethod
    def from_plan(cls, plan: FaultPlan, where: str = "faults") -> "FaultSpec":
        """Recover the spec from a uniform plan (raises otherwise)."""
        if plan.per_link or plan.partitions or plan.crashes:
            _fail(
                where,
                "only uniform fault plans (no per-link overrides, "
                "partitions or crash schedules) are expressible in a "
                "scenario spec; build the plan in code instead",
            )
        return cls(
            seed=plan.seed,
            drop_probability=plan.default_link.drop_probability,
            duplicate_probability=plan.default_link.duplicate_probability,
            reorder_jitter=plan.default_link.reorder_jitter,
            max_retries=plan.max_retries,
            retry_backoff=plan.retry_backoff,
            leader_timeout=plan.leader_timeout,
        )

    def validate(self, where: str = "faults") -> None:
        try:
            self.to_plan()
        except ValueError as exc:
            _fail(where, str(exc))


@dataclass(frozen=True)
class ToleranceSpec:
    """Theorem 2's per-level Byzantine shares (``tolerance_sweep``)."""

    gamma1: float = 0.25
    gamma2: float = 0.25

    def validate(self, where: str = "tolerance") -> None:
        for name in ("gamma1", "gamma2"):
            value = getattr(self, name)
            if not (isfinite(value) and 0.0 <= value < 1.0):
                _fail(f"{where}.{name}", f"must be in [0, 1), got {value}")


@dataclass(frozen=True)
class PipelineSpec:
    """Event-driven Figure-2 run knobs (``pipeline_timing``)."""

    flag_level: int = 1
    global_delay: float = 25.0
    n_rounds: int = 15

    def validate(self, where: str = "pipeline") -> None:
        if self.flag_level < 0:
            _fail(f"{where}.flag_level", f"must be >= 0, got {self.flag_level}")
        if not (isfinite(self.global_delay) and self.global_delay > 0):
            _fail(
                f"{where}.global_delay",
                f"must be a positive finite float, got {self.global_delay}",
            )
        if self.n_rounds < 1:
            _fail(f"{where}.n_rounds", f"must be >= 1, got {self.n_rounds}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment grid (see the module docstring)."""

    name: str
    kind: str
    description: str = ""
    seed: int = 0
    seed_policy: str = "shared"

    # grid axes (which axes apply, and in what order, is the kind's row)
    attacks: tuple[str, ...] = ()
    defences: tuple[str, ...] = ()
    fractions: tuple[float, ...] = ()
    distributions: tuple[str, ...] = ("iid",)
    schemes: tuple[int, ...] = ()

    # trainer-based kinds
    topology: TopologySpec = field(default_factory=TopologySpec)
    data: DataSpec = field(default_factory=DataSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    n_runs: int = 1
    placement: str = "prefix"
    top_consensus: str = "voting"
    top_options: dict = field(default_factory=dict)

    # gradient-estimation kinds
    estimation: EstimationSpec = field(default_factory=EstimationSpec)
    defence_options: dict | None = None  # None = derive via defence_options_for
    attack_options: dict = field(default_factory=dict)
    consensus: str | None = None
    consensus_adversary: str = "none"
    consensus_options: dict = field(default_factory=dict)
    drop_fraction: float = 0.0
    faults: FaultSpec | None = None

    # single-kind sections
    tolerance: ToleranceSpec = field(default_factory=ToleranceSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)

    def __post_init__(self) -> None:
        for name in ("attacks", "defences", "distributions", "schemes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self, "fractions", tuple(float(f) for f in self.fractions)
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check every field against its registry; returns ``self``.

        Raises :class:`ValueError` naming the offending path.
        """
        if not isinstance(self.name, str) or not self.name:
            _fail("name", "must be a non-empty string")
        if self.kind not in KINDS:
            _fail(
                "kind",
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{list(KINDS)}",
            )
        if self.seed < 0:
            _fail("seed", f"must be non-negative, got {self.seed}")
        if self.seed_policy not in SEED_POLICIES:
            _fail(
                "seed_policy",
                f"unknown seed policy {self.seed_policy!r}; expected one of "
                f"{list(SEED_POLICIES)}",
            )
        kind = KINDS[self.kind]
        self._check_axes(kind)
        for name, check in _SECTION_CHECKS.items():
            if name in kind.sections:
                check(self)
            else:
                self._require_default(name)
        return self

    def _check_axes(self, kind: Kind) -> None:
        """Axes the kind spans are non-empty (exactly one value where the
        kind pins them) and in vocabulary; the others sit at their
        defaults."""
        # The gradient-estimation abstraction measures robust rules that
        # assume a strict minority; the trainer-based grids deliberately
        # sweep past the theoretical bound (Table V goes to 65 %).
        limit = kind.fraction_limit
        attacks, aggregators = kind.attacks(), available_aggregators()
        rules: dict[str, tuple[Callable[[Any], bool], str]] = {
            "attacks": (attacks.__contains__, f"available: {sorted(attacks)}"),
            "defences": (aggregators.__contains__, f"available: {aggregators}"),
            "fractions": (
                lambda f: isfinite(f) and 0.0 <= f < limit,
                f"must be in [0, {limit})",
            ),
            "distributions": (
                ("iid", "noniid").__contains__,
                "expected 'iid' or 'noniid'",
            ),
            "schemes": (
                SCHEME_DESCRIPTIONS.__contains__,
                f"expected one of {sorted(SCHEME_DESCRIPTIONS)}",
            ),
        }
        for axis in AXES:
            accepts, expectation = rules[axis]
            values = getattr(self, axis)
            if axis not in kind.axes:
                self._require_default(axis)
                continue
            if not values:
                _fail(axis, "at least one value is required")
            if axis in kind.single and len(values) != 1:
                _fail(
                    axis,
                    f"kind {self.kind!r} takes exactly one value, got "
                    f"{len(values)}",
                )
            for i, value in enumerate(values):
                if not accepts(value):
                    _fail(
                        f"{axis}[{i}]",
                        f"{value!r} is not valid for kind {self.kind!r}; "
                        f"{expectation}",
                    )

    def _require_default(self, name: str) -> None:
        if getattr(self, name) != _DEFAULTS[name]:
            _fail(name, f"not used by kind {self.kind!r}")

    def _check_choice(self, name: str, known: tuple[str, ...]) -> None:
        value = getattr(self, name)
        if value not in known:
            _fail(name, f"unknown {name} {value!r}; available: {list(known)}")

    def _check_n_runs(self) -> None:
        if self.n_runs < 1:
            _fail("n_runs", f"must be >= 1, got {self.n_runs}")

    def _check_consensus(self) -> None:
        if self.consensus is not None:
            self._check_choice("consensus", CONSENSUS_NAMES)

    def _check_consensus_adversary(self) -> None:
        self._check_choice("consensus_adversary", tuple(ADVERSARIES))
        # Mirror _make_cell_consensus: adversaries and fault plans are only
        # simulated by the message-driven 'acs' backend.
        if self.consensus_adversary != "none" and self.consensus != "acs":
            _fail(
                "consensus_adversary",
                "consensus-level adversaries require consensus = 'acs', got "
                f"consensus = {self.consensus!r}",
            )

    def _check_consensus_options(self) -> None:
        if self.consensus_options and self.consensus is None:
            _fail(
                "consensus_options",
                "consensus options require a consensus backend",
            )

    def _check_drop_fraction(self) -> None:
        if not (isfinite(self.drop_fraction) and 0.0 <= self.drop_fraction < 1.0):
            _fail(
                "drop_fraction",
                f"must be in [0, 1), got {self.drop_fraction}",
            )

    def _check_pipeline(self) -> None:
        self.pipeline.validate()
        # EventDrivenRun raises the flag strictly above the bottom level.
        bottom = self.topology.n_levels - 1
        if self.pipeline.flag_level >= bottom:
            _fail(
                "pipeline.flag_level",
                f"must be in [0, {bottom}) for topology.n_levels = "
                f"{self.topology.n_levels}, got {self.pipeline.flag_level}",
            )

    def _check_faults(self) -> None:
        if self.faults is None:
            return
        if self.consensus != "acs":
            _fail(
                "faults",
                "fault plans only apply to the message-driven 'acs' "
                f"backend, got consensus = {self.consensus!r}",
            )
        self.faults.validate()

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def base_experiment_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` every trainer-based cell derives
        from (per-cell attack/fraction/distribution applied on top)."""
        return ExperimentConfig(
            n_levels=self.topology.n_levels,
            cluster_size=self.topology.cluster_size,
            n_top=self.topology.n_top,
            image_side=self.data.image_side,
            samples_per_client=self.data.samples_per_client,
            n_test=self.data.n_test,
            noniid_kind=self.data.noniid_kind,
            dirichlet_alpha=self.data.dirichlet_alpha,
            hidden=self.training.hidden,
            n_rounds=self.training.n_rounds,
            local_iterations=self.training.local_iterations,
            batch_size=self.training.batch_size,
            learning_rate=self.training.learning_rate,
            placement=self.placement,
            top_consensus=self.top_consensus,
            top_options=dict(self.top_options),
            seed=self.seed,
        )

    def fault_plan(self) -> FaultPlan | None:
        return None if self.faults is None else self.faults.to_plan()

    def to_dict(self) -> dict[str, Any]:
        """The strict dict form (inverse of :meth:`from_dict`).

        Only the kind's axes and sections are emitted; every other field
        is guaranteed (by :meth:`validate`) to sit at its default, so the
        round trip is the identity.
        """
        kind = KINDS[self.kind]
        out: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.description:
            out["description"] = self.description
        out["seed"] = self.seed
        out["seed_policy"] = self.seed_policy
        for axis in AXES:
            if axis in kind.axes:
                out[axis] = list(getattr(self, axis))
        for name in _SECTION_CHECKS:
            value = getattr(self, name)
            # None / {} defaults mean "absent": TOML has no null, and an
            # empty table would read back identically anyway.
            absent = _DEFAULTS[name] in (None, {}) and value == _DEFAULTS[name]
            if name not in kind.sections or absent:
                continue
            if isinstance(value, dict):
                out[name] = dict(value)
            elif isinstance(value, (str, int, float)):
                out[name] = value
            else:
                out[name] = _sub_to_dict(value)
        return out

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from parsed TOML/JSON data.

        Unknown keys (at any nesting level) raise :class:`ValueError`
        naming the offending path.
        """
        if not isinstance(mapping, Mapping):
            raise ValueError(
                f"scenario spec must be a table/mapping, got {type(mapping).__name__}"
            )
        data = dict(mapping)
        kwargs: dict[str, Any] = {}

        def take(key: str) -> Any:
            return data.pop(key, None)

        for key in (
            "name",
            "kind",
            "description",
            "seed_policy",
            "placement",
            "top_consensus",
            "consensus",
            "consensus_adversary",
        ):
            if key in data:
                kwargs[key] = _as_str(take(key), key)
        for key in ("seed", "n_runs"):
            if key in data:
                kwargs[key] = _as_int(take(key), key)
        if "drop_fraction" in data:
            kwargs["drop_fraction"] = _as_float(take("drop_fraction"), "drop_fraction")
        for key in ("attacks", "defences", "distributions"):
            if key in data:
                kwargs[key] = _as_str_tuple(take(key), key)
        if "fractions" in data:
            kwargs["fractions"] = _as_float_tuple(take("fractions"), "fractions")
        if "schemes" in data:
            kwargs["schemes"] = tuple(
                _as_int(v, f"schemes[{i}]")
                for i, v in enumerate(_as_list(take("schemes"), "schemes"))
            )
        for key, sub in (
            ("topology", TopologySpec),
            ("data", DataSpec),
            ("training", TrainingSpec),
            ("estimation", EstimationSpec),
            ("faults", FaultSpec),
            ("tolerance", ToleranceSpec),
            ("pipeline", PipelineSpec),
        ):
            if key in data:
                kwargs[key] = _sub_from_dict(sub, take(key), key)
        for key in (
            "top_options",
            "defence_options",
            "attack_options",
            "consensus_options",
        ):
            if key in data:
                kwargs[key] = _as_options(take(key), key)
        if data:
            unknown = sorted(data)
            raise ValueError(
                f"unknown key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in unknown)} in scenario spec"
            )
        for required in ("name", "kind"):
            if required not in kwargs:
                _fail(required, "is required")
        return cls(**kwargs).validate()


def _unchecked(spec: ScenarioSpec) -> None:
    """Free-form option tables: the registry that consumes them validates."""


#: Every non-axis optional field with its validator, in ``to_dict`` order;
#: a kind's ``sections`` names the ones that apply to it, the rest must
#: sit at their defaults.
_SECTION_CHECKS: dict[str, Callable[[ScenarioSpec], None]] = {
    "n_runs": ScenarioSpec._check_n_runs,
    "placement": lambda spec: spec._check_choice("placement", PLACEMENTS),
    "top_consensus": lambda spec: spec._check_choice(
        "top_consensus", CONSENSUS_NAMES
    ),
    "consensus": ScenarioSpec._check_consensus,
    "consensus_adversary": ScenarioSpec._check_consensus_adversary,
    "drop_fraction": ScenarioSpec._check_drop_fraction,
    "topology": lambda spec: spec.topology.validate(),
    "data": lambda spec: spec.data.validate(),
    "training": lambda spec: spec.training.validate(),
    "estimation": lambda spec: spec.estimation.validate(),
    "tolerance": lambda spec: spec.tolerance.validate(),
    "pipeline": ScenarioSpec._check_pipeline,
    "top_options": _unchecked,
    "defence_options": _unchecked,
    "attack_options": _unchecked,
    "consensus_options": ScenarioSpec._check_consensus_options,
    "faults": ScenarioSpec._check_faults,
}

_DEFAULTS: dict[str, Any] = {
    f.name: f.default if f.default is not MISSING else f.default_factory()  # type: ignore[misc]
    for f in dataclass_fields(ScenarioSpec)
    if f.name in AXES or f.name in _SECTION_CHECKS
}


# ----------------------------------------------------------------------
# typed coercion helpers (TOML integers may stand in for floats)
# ----------------------------------------------------------------------
def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_str_tuple(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list of strings, got {value!r}")
    return tuple(_as_str(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_float_tuple(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list of numbers, got {value!r}")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_options(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        _fail(path, f"expected a table of options, got {value!r}")
    return {_as_str(k, f"{path} key") : v for k, v in value.items()}


def _sub_to_dict(sub: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in dataclass_fields(sub):
        value = getattr(sub, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _sub_from_dict(cls: type, mapping: Any, where: str) -> Any:
    if not isinstance(mapping, Mapping):
        _fail(where, f"expected a table, got {mapping!r}")
    data = dict(mapping)
    kwargs: dict[str, Any] = {}
    for f in dataclass_fields(cls):
        if f.name not in data:
            continue
        value = data.pop(f.name)
        path = f"{where}.{f.name}"
        if f.type in ("int",):
            kwargs[f.name] = _as_int(value, path)
        elif f.type in ("float",):
            kwargs[f.name] = _as_float(value, path)
        elif f.type in ("str",):
            kwargs[f.name] = _as_str(value, path)
        elif f.type.startswith("tuple[int"):
            kwargs[f.name] = tuple(
                _as_int(v, f"{path}[{i}]")
                for i, v in enumerate(_as_list(value, path))
            )
        else:  # pragma: no cover - no other field types exist
            kwargs[f.name] = value
    if data:
        unknown = sorted(data)
        raise ValueError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(f'{where}.{k}' for k in unknown)} in scenario spec"
        )
    return cls(**kwargs)


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list, got {value!r}")
    return list(value)


# ----------------------------------------------------------------------
# spec builders
# ----------------------------------------------------------------------
def accuracy_spec(
    config: ExperimentConfig | None = None,
    *,
    name: str = "accuracy-grid",
    description: str = "",
    fractions: tuple[float, ...],
    distributions: tuple[str, ...] = ("iid", "noniid"),
    attacks: tuple[str, ...] = ("type1", "type2"),
    n_runs: int = 1,
    seed: int | None = None,
    seed_policy: str = "shared",
) -> ScenarioSpec:
    """A Table-V-style spec from an :class:`ExperimentConfig` template.

    Per-cell fields of ``config`` (``iid`` / ``attack`` /
    ``malicious_fraction``) and the per-distribution aggregator pairing
    are grid concerns and are ignored here.
    """
    config = config or ExperimentConfig()
    return ScenarioSpec(
        name=name,
        kind="accuracy_grid",
        description=description,
        seed=config.seed if seed is None else seed,
        seed_policy=seed_policy,
        attacks=tuple(attacks),
        fractions=tuple(fractions),
        distributions=tuple(distributions),
        topology=TopologySpec(
            n_levels=config.n_levels,
            cluster_size=config.cluster_size,
            n_top=config.n_top,
        ),
        data=DataSpec(
            image_side=config.image_side,
            samples_per_client=config.samples_per_client,
            n_test=config.n_test,
            noniid_kind=config.noniid_kind,
            dirichlet_alpha=config.dirichlet_alpha,
        ),
        training=TrainingSpec(
            hidden=tuple(config.hidden),
            n_rounds=config.n_rounds,
            local_iterations=config.local_iterations,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
        ),
        n_runs=n_runs,
        placement=config.placement,
        top_consensus=config.top_consensus,
        top_options=dict(config.top_options),
    ).validate()


def matrix_spec(
    *,
    name: str = "defence-matrix",
    kind: str = "defence_matrix",
    description: str = "",
    defences: tuple[str, ...],
    attacks: tuple[str, ...],
    fractions: tuple[float, ...],
    seed: int = 0,
    seed_policy: str = "shared",
    consensus: str | None = None,
    consensus_adversary: str = "none",
    consensus_options: dict | None = None,
    n_total: int = 20,
    dim: int = 64,
    noise: float = 0.5,
    n_trials: int = 8,
    drop_fraction: float = 0.0,
    defence_options: dict | None = None,
    attack_options: dict | None = None,
    faults: FaultSpec | None = None,
) -> ScenarioSpec:
    """A gradient-estimation spec (defence matrix or breakdown curve)."""
    return ScenarioSpec(
        name=name,
        kind=kind,
        description=description,
        seed=seed,
        seed_policy=seed_policy,
        attacks=tuple(attacks),
        defences=tuple(defences),
        fractions=tuple(fractions),
        estimation=EstimationSpec(
            n_total=n_total, dim=dim, noise=noise, n_trials=n_trials
        ),
        defence_options=defence_options,
        attack_options=dict(attack_options or {}),
        consensus=consensus,
        consensus_adversary=consensus_adversary,
        consensus_options=dict(consensus_options or {}),
        drop_fraction=drop_fraction,
        faults=faults,
    ).validate()
