"""Shared finding/rule/pragma machinery for the abdlint engine.

Everything here is rule-agnostic: the :class:`Finding` record both the
per-file pass and the project pass emit, the rule table (id -> one-line
description) driving ``--list-rules`` and the SARIF rule metadata, the
``# abdlint: ignore[...]`` pragma parser, and the path-derived
:class:`FileKind` exemption context.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

RULES: dict[str, str] = {
    "DET001": "global-state RNG call; use a seeded np.random.Generator "
    "from repro.utils.seeding",
    "DET002": "wall-clock read in deterministic code; only benchmarks/ "
    "may read real time (no src/ module does)",
    "DET003": "iteration over an unordered set; wrap in sorted(...) or "
    "use an ordered container",
    "DET004": "process fan-out outside repro.parallel; use parallel_map/"
    "LocalTrainingPool (ordered, deterministic reduction)",
    "PAR001": "multiprocessing.shared_memory outside the slab owners; "
    "only repro/parallel and repro/core/pool.py may touch shared-memory "
    "segments (ParameterSlab owns creation, attach and unlink)",
    "DET005": "RNG seeded from a literal outside tests/benchmarks; every "
    "generator must derive from derive_seed or a config seed",
    "NUM001": "bare ==/!= on a float ndarray; use np.array_equal or "
    "np.isclose",
    "INV001": "hand-rolled quorum arithmetic; use repro.check.invariants "
    "(quorum_size/max_faulty/require_fault_bound)",
    "SCN001": "hand-rolled experiment sweep outside repro/scenario; "
    "describe the grid as a ScenarioSpec and run it through "
    "ScenarioRunner",
    "OBS001": "print() in library code; only the CLI/report emission "
    "modules may write to stdout — everything else goes through the "
    "trace/audit streams",
    "ARCH001": "import-layering violation; a lower architectural layer "
    "may not import an upper one (see DESIGN.md 'Static analysis')",
    "REG001": "registry out of sync; every registered name needs its "
    "oracle/suite/runner-branch counterpart",
}

#: Rules that need the whole-program symbol table (pass 2); the rest run
#: file-local in pass 1.
PROJECT_RULES: frozenset[str] = frozenset({"ARCH001", "DET005", "REG001"})

_PRAGMA = re.compile(r"#\s*abdlint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


def suppressed_rules(source: str) -> dict[int, list[str] | None]:
    """Map line number -> suppressed rule list (None = all rules).

    A list (not a set) so the map round-trips through the JSON summary
    cache unchanged.
    """
    out: dict[int, list[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if not match:
            continue
        if match.group(1) is None:
            out[lineno] = None
        else:
            out[lineno] = sorted(
                {
                    rule.strip().upper()
                    for rule in match.group(1).split(",")
                    if rule.strip()
                }
            )
    return out


def is_suppressed(
    pragmas: dict[int, list[str] | None], line: int, rule: str
) -> bool:
    if line not in pragmas:
        return False
    rules_off = pragmas[line]
    return rules_off is None or rule in rules_off


@dataclass(frozen=True)
class FileKind:
    """Path-derived exemption context."""

    is_tests: bool
    is_benchmarks: bool
    is_seeding: bool
    is_invariants: bool
    is_parallel: bool
    is_shm_owner: bool
    is_scenario: bool
    in_src: bool
    is_emission: bool

    #: Basenames allowed to print() in library code (OBS001): the CLI
    #: itself, the trace-report renderer, and the shared stdout helpers.
    _EMISSION_BASENAMES = frozenset({"cli.py", "report.py", "reporting.py"})

    @classmethod
    def from_path(cls, path: str) -> "FileKind":
        posix = Path(path).as_posix()
        parts = posix.split("/")
        name = parts[-1]
        return cls(
            is_tests="tests" in parts[:-1] or name.startswith("test_")
            or name == "conftest.py",
            is_benchmarks="benchmarks" in parts[:-1] or name.startswith("bench_"),
            is_seeding=posix.endswith("repro/utils/seeding.py"),
            is_invariants=posix.endswith("repro/check/invariants.py"),
            # The single process-fan-out carve-out: the deterministic
            # pool backend itself.
            is_parallel="repro/parallel" in posix,
            # The shared-memory carve-out (PAR001): the slab module and
            # the one pool that rides it own every segment lifecycle.
            is_shm_owner="repro/parallel" in posix
            or posix.endswith("repro/core/pool.py"),
            # The single sweep-loop carve-out: the scenario layer owns
            # grid expansion (SCN001).
            is_scenario="repro/scenario" in posix,
            # Library code (under a src/ tree) may not print (OBS001)
            # except in the designated emission modules.
            in_src="src" in parts[:-1],
            is_emission=name in cls._EMISSION_BASENAMES,
        )


def module_name(path: str) -> str | None:
    """Dotted module name for a file under a ``src/`` root, else None.

    ``src/repro/core/trainer.py`` -> ``repro.core.trainer``;
    ``src/repro/core/__init__.py`` -> ``repro.core``.  Files outside a
    ``src`` root (tests, benchmarks, tools) have no project module name.
    """
    parts = list(Path(path).parts)
    if "src" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("src")
    rel = parts[idx + 1 :]
    if not rel or not rel[-1].endswith(".py"):
        return None
    rel[-1] = rel[-1][: -len(".py")]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    if not rel:
        return None
    return ".".join(rel)
