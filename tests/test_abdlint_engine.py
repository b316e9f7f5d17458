"""The abdlint whole-program engine (tools/abdlint).

Covers the pass-1 symbol table (module summaries, import graph,
registration capture), each cross-module rule against seeded mutations
of the kind it exists to catch, SARIF serialisation, and the incremental
cache (correct invalidation + the warm-run speed contract).
"""

import json
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from abdlint import arch, registry, seedflow  # noqa: E402
from abdlint.cache import ENGINE_VERSION, SummaryCache  # noqa: E402
from abdlint.engine import build_summary, discover, run_engine  # noqa: E402
from abdlint.findings import RULES, module_name  # noqa: E402
from abdlint.project import Project, summarize_source  # noqa: E402
from abdlint.sarif import to_sarif  # noqa: E402
from abdlint.selftest import self_test  # noqa: E402


def project_from(files: dict[str, str]) -> Project:
    """A Project built from in-memory {path: source} sources."""
    return Project(
        [build_summary(path, source) for path, source in files.items()]
    )


# ----------------------------------------------------------------------
# pass 1: module summaries / symbol table
# ----------------------------------------------------------------------
class TestModuleSummary:
    def test_module_name_mapping(self):
        assert module_name("src/repro/core/trainer.py") == "repro.core.trainer"
        assert module_name("src/repro/core/__init__.py") == "repro.core"
        assert module_name("tests/test_foo.py") is None

    def test_import_graph_edges(self):
        s = summarize_source(
            "src/repro/core/x.py",
            "import repro.sim\n"
            "from repro.aggregation import mean\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.cli import main\n",
        )
        edges = {(m, type_only) for m, _line, type_only, _fn in s.imports}
        assert ("repro.sim", False) in edges
        assert ("repro.aggregation", False) in edges
        assert ("repro.cli", True) in edges  # type-only flag recorded

    def test_relative_import_resolution(self):
        s = summarize_source(
            "src/repro/consensus/async_bft/aba.py",
            "from . import events\nfrom ..base import ConsensusResult\n",
        )
        modules = [m for m, *_ in s.imports]
        # `from . import events` edges to the containing package; the
        # two-dots form resolves through the parent.
        assert "repro.consensus.async_bft" in modules
        assert "repro.consensus.base" in modules

    def test_function_table_params_and_assigns(self):
        s = summarize_source(
            "src/repro/sim/y.py",
            "def f(a, b=2):\n    c = a + 1\n    return c\n",
        )
        assert s.functions["f"]["params"] == ["a", "b"]
        desc, line = s.functions["f"]["assigns"]["c"]
        assert desc[0] == "binop" and line == 2

    def test_registration_capture(self):
        s = summarize_source(
            "src/repro/aggregation/z.py",
            "from repro.aggregation.registry import register_aggregator\n"
            "@register_aggregator('myrule')\n"
            "class MyRule:\n"
            "    pass\n",
        )
        assert s.registrations["aggregators"] == [["myrule", 2]]

    def test_factories_capture(self):
        s = summarize_source(
            "src/repro/consensus/registry.py",
            "_FACTORIES = {'voting': VotingConsensus}\n",
        )
        assert s.registrations["consensus_factories"] == [
            ["voting", "VotingConsensus", 1]
        ]

    def test_rng_site_capture(self):
        s = summarize_source(
            "src/repro/sim/r.py",
            "from repro.utils.seeding import seeded_generator\n"
            "def f(seed):\n"
            "    return seeded_generator(seed)\n",
        )
        (ctor, line, _col, seed_desc, func) = s.rng_sites[0]
        assert ctor.endswith("seeded_generator")
        assert line == 3 and func == "f" and seed_desc == ["name", "seed"]

    def test_summary_json_roundtrip(self):
        s = summarize_source(
            "src/repro/sim/j.py",
            "import repro.obs\ndef f(x):\n    y = x\n    return y\n",
        )
        restored = type(s).from_json(json.loads(json.dumps(s.to_json())))
        assert restored.imports == s.imports
        assert restored.functions == s.functions
        assert restored.module == s.module


# ----------------------------------------------------------------------
# seeded mutations: each cross-module rule catches its target defect
# ----------------------------------------------------------------------
class TestArchRule:
    def test_upward_import_is_caught(self):
        project = project_from(
            {
                "src/repro/aggregation/bad.py": "from repro.cli import main\n"
            }
        )
        findings = arch.run(project)
        assert [f.rule for f in findings] == ["ARCH001"]
        assert "repro.aggregation -> repro.cli" in findings[0].message
        assert findings[0].line == 1

    def test_downward_and_same_layer_imports_pass(self):
        project = project_from(
            {
                "src/repro/pipeline/ok.py": (
                    "from repro.consensus import registry\n"
                    "from repro.experiments import setup\n"  # same layer? no: up
                ),
            }
        )
        # pipeline -> consensus is downward; pipeline -> experiments is
        # same-layer (both orchestration) — neither may fire.
        assert arch.run(project) == []

    def test_type_only_import_is_exempt(self):
        project = project_from(
            {
                "src/repro/aggregation/typed.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.cli import main\n"
                )
            }
        )
        assert arch.run(project) == []

    def test_unknown_package_is_flagged(self):
        project = project_from(
            {"src/repro/newpkg/mod.py": "import os\n"}
        )
        findings = arch.run(project)
        assert findings and findings[0].rule == "ARCH001"
        assert "not in the layering contract" in findings[0].message

    def test_contract_matches_real_tree(self):
        """The shipped src/ tree satisfies the declared contract."""
        result = run_engine(
            [str(REPO / "src")], select={"ARCH001"}, use_cache=False
        )
        assert result.findings == []


class TestSeedflowRule:
    HELPER = (
        "from repro.utils.seeding import seeded_generator\n"
        "def make_stream(seed):\n"
        "    return seeded_generator(seed)\n"
    )

    def test_direct_literal_is_caught(self):
        project = project_from(
            {
                "src/repro/sim/bad.py": (
                    "from repro.utils.seeding import seeded_generator\n"
                    "rng = seeded_generator(42)\n"
                )
            }
        )
        findings = seedflow.run(project)
        assert [f.rule for f in findings] == ["DET005"]
        assert findings[0].line == 2

    def test_literal_through_helper_is_caught_at_entry(self):
        project = project_from(
            {
                "src/repro/sim/helper.py": self.HELPER,
                "src/repro/core/caller.py": (
                    "from repro.sim.helper import make_stream\n"
                    "stream = make_stream(1234)\n"
                ),
            }
        )
        findings = seedflow.run(project)
        assert [f.rule for f in findings] == ["DET005"]
        # Reported where the literal enters, not where the RNG is built.
        assert findings[0].path == "src/repro/core/caller.py"
        assert findings[0].line == 2
        assert "1234" in findings[0].message

    def test_config_seed_is_trusted(self):
        project = project_from(
            {
                "src/repro/sim/helper.py": self.HELPER,
                "src/repro/core/caller.py": (
                    "from repro.sim.helper import make_stream\n"
                    "def build(config):\n"
                    "    return make_stream(config.seed)\n"
                ),
            }
        )
        assert seedflow.run(project) == []

    def test_derive_seed_is_trusted(self):
        project = project_from(
            {
                "src/repro/sim/ok.py": (
                    "from repro.utils.seeding import derive_seed, seeded_generator\n"
                    "def f(root):\n"
                    "    return seeded_generator(derive_seed(root, 'f'))\n"
                )
            }
        )
        assert seedflow.run(project) == []

    def test_literal_from_test_file_is_allowed(self):
        project = project_from(
            {
                "src/repro/sim/helper.py": self.HELPER,
                "tests/test_caller.py": (
                    "from repro.sim.helper import make_stream\n"
                    "stream = make_stream(7)\n"
                ),
            }
        )
        assert seedflow.run(project) == []

    def test_local_variable_literal_is_caught(self):
        project = project_from(
            {
                "src/repro/sim/local.py": (
                    "from repro.utils.seeding import seeded_generator\n"
                    "def f():\n"
                    "    seed = 99\n"
                    "    return seeded_generator(seed)\n"
                )
            }
        )
        findings = seedflow.run(project)
        assert [f.rule for f in findings] == ["DET005"]

    def test_real_tree_is_clean(self):
        result = run_engine(
            [str(REPO / "src")], select={"DET005"}, use_cache=False
        )
        assert result.findings == []


class TestRegistryRule:
    def test_unregistered_oracle_is_caught(self):
        project = project_from(
            {
                "src/repro/aggregation/orphan.py": (
                    "from repro.aggregation.registry import register_aggregator\n"
                    "@register_aggregator('lonely')\n"
                    "class Lonely:\n"
                    "    pass\n"
                )
            }
        )
        findings = registry.run(project)
        assert [f.rule for f in findings] == ["REG001"]
        assert "lonely" in findings[0].message

    def test_paired_registrations_pass(self):
        project = project_from(
            {
                "src/repro/aggregation/paired.py": (
                    "from repro.aggregation.registry import ("
                    "register_aggregator, register_reference)\n"
                    "@register_aggregator('pair')\n"
                    "class Fast:\n"
                    "    pass\n"
                    "@register_reference('pair')\n"
                    "class Ref:\n"
                    "    pass\n"
                )
            }
        )
        assert registry.run(project) == []

    def test_dynamic_differential_coverage_satisfies(self):
        project = project_from(
            {
                "src/repro/aggregation/paired.py": (
                    "from repro.aggregation.registry import ("
                    "register_aggregator, register_reference)\n"
                    "@register_aggregator('pair')\n"
                    "class Fast:\n"
                    "    pass\n"
                    "@register_reference('pair')\n"
                    "class Ref:\n"
                    "    pass\n"
                ),
                "tests/test_diff.py": (
                    "from repro.aggregation import available_aggregators\n"
                    "ALL = available_aggregators()\n"
                ),
            }
        )
        assert registry.run(project) == []

    def test_uncovered_consensus_backend_is_caught(self):
        project = project_from(
            {
                "src/repro/consensus/registry.py": (
                    "_FACTORIES = {'voting': VotingConsensus, "
                    "'ghost': GhostConsensus}\n"
                ),
                "tests/test_props.py": (
                    "from repro.consensus import VotingConsensus\n"
                    "def test_v():\n"
                    "    VotingConsensus()\n"
                ),
            }
        )
        findings = registry.run(project)
        assert [f.rule for f in findings] == ["REG001"]
        assert "ghost" in findings[0].message

    def test_real_tree_is_clean(self):
        result = run_engine(
            [str(REPO / "src"), str(REPO / "tests")],
            select={"REG001"},
            use_cache=False,
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# fixtures drive --self-test
# ----------------------------------------------------------------------
def test_self_test_passes():
    assert self_test() == []


def test_select_unknown_rule_raises():
    with pytest.raises(ValueError, match="unknown rules"):
        run_engine([str(REPO / "src")], select={"NOPE999"}, use_cache=False)


def test_discovery_skips_fixture_tree():
    files = discover([str(REPO / "tools"), str(REPO / "src")])
    assert not any("abdlint/fixtures" in f for f in files)
    assert files and all(f.endswith(".py") for f in files)


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_sarif_schema_smoke(tmp_path):
    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "from repro.utils.seeding import seeded_generator\n"
        "rng = seeded_generator(5)\n"
    )
    result = run_engine([str(tmp_path)], use_cache=False)
    assert any(f.rule == "DET005" for f in result.findings)
    log = to_sarif(result.findings, ENGINE_VERSION)
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "abdlint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == set(RULES)
    res = run["results"][0]
    assert res["ruleId"] == "DET005"
    assert res["ruleIndex"] >= 0
    loc = res["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 2
    assert loc["artifactLocation"]["uri"].endswith("bad.py")
    # round-trips through json
    json.loads(json.dumps(log))


# ----------------------------------------------------------------------
# incremental cache
# ----------------------------------------------------------------------
class TestCache:
    def _tree(self, tmp_path, n_files=40, body_reps=30):
        src = tmp_path / "src" / "repro" / "sim"
        src.mkdir(parents=True)
        body = (
            "def fn_{i}_{j}(a, b=1):\n"
            "    c = a + b\n"
            "    d = sorted([c, a, b])\n"
            "    return d[0]\n"
        )
        for i in range(n_files):
            text = "\n".join(
                body.format(i=i, j=j) for j in range(body_reps)
            )
            (src / f"mod_{i}.py").write_text(text)
        return src

    def test_cache_serves_identical_findings(self, tmp_path):
        src = tmp_path / "src" / "repro" / "sim"
        src.mkdir(parents=True)
        bad = src / "bad.py"
        bad.write_text(
            "from repro.utils.seeding import seeded_generator\n"
            "rng = seeded_generator(3)\n"
        )
        cache_dir = str(tmp_path / ".abdlint_cache")
        cold = run_engine([str(src)], cache_dir=cache_dir)
        warm = run_engine([str(src)], cache_dir=cache_dir)
        assert cold.findings == warm.findings
        assert warm.cache.hits == 1 and warm.cache.misses == 0

    def test_edit_invalidates_and_refreshes(self, tmp_path):
        src = tmp_path / "src" / "repro" / "sim"
        src.mkdir(parents=True)
        mod = src / "mod.py"
        mod.write_text(
            "from repro.utils.seeding import seeded_generator\n"
            "rng = seeded_generator(3)\n"
        )
        cache_dir = str(tmp_path / ".abdlint_cache")
        first = run_engine([str(src)], cache_dir=cache_dir)
        assert any(f.rule == "DET005" for f in first.findings)
        # fix the violation; the stale cached finding must not survive
        mod.write_text(
            "from repro.utils.seeding import seeded_generator\n"
            "def make(config):\n"
            "    return seeded_generator(config.seed)\n"
        )
        second = run_engine([str(src)], cache_dir=cache_dir)
        assert second.findings == []
        assert second.cache.misses == 1

    def test_touch_without_edit_still_hits(self, tmp_path):
        src = self._tree(tmp_path, n_files=1, body_reps=3)
        cache_dir = str(tmp_path / ".abdlint_cache")
        run_engine([str(src)], cache_dir=cache_dir)
        path = next(src.glob("*.py"))
        path.touch()  # new mtime, same bytes -> sha256 fallback hits
        warm = run_engine([str(src)], cache_dir=cache_dir)
        assert warm.cache.hits == 1 and warm.cache.misses == 0

    def test_engine_version_bump_invalidates(self, tmp_path):
        src = self._tree(tmp_path, n_files=1, body_reps=3)
        cache_dir = tmp_path / ".abdlint_cache"
        run_engine([str(src)], cache_dir=str(cache_dir))
        blob = json.loads((cache_dir / "summaries.json").read_text())
        blob["engine_version"] = "0.0.0-stale"
        (cache_dir / "summaries.json").write_text(json.dumps(blob))
        warm = run_engine([str(src)], cache_dir=str(cache_dir))
        assert warm.cache.misses == 1

    def test_warm_run_is_under_quarter_of_cold(self, tmp_path):
        # Large bodies so cold-run parse cost dwarfs the fixed per-run
        # overhead (discovery + project pass) the cache cannot remove.
        src = self._tree(tmp_path, body_reps=120)
        cache_dir = str(tmp_path / ".abdlint_cache")
        # Wall-clock is the quantity under test here: the assertion is
        # about real parse time saved, not simulated time.
        t0 = time.perf_counter()  # abdlint: ignore[DET002]
        cold = run_engine([str(src)], cache_dir=cache_dir)
        cold_s = time.perf_counter() - t0  # abdlint: ignore[DET002]
        t0 = time.perf_counter()  # abdlint: ignore[DET002]
        warm = run_engine([str(src)], cache_dir=cache_dir)
        warm_s = time.perf_counter() - t0  # abdlint: ignore[DET002]
        assert cold.cache.misses == 40 and warm.cache.hits == 40
        assert cold.findings == warm.findings
        assert warm_s < 0.25 * cold_s, (
            f"warm {warm_s:.3f}s !< 25% of cold {cold_s:.3f}s"
        )

    def test_cache_flush_is_atomic_json(self, tmp_path):
        src = self._tree(tmp_path, n_files=2, body_reps=2)
        cache_dir = tmp_path / ".abdlint_cache"
        run_engine([str(src)], cache_dir=str(cache_dir))
        blob = json.loads((cache_dir / "summaries.json").read_text())
        assert blob["engine_version"] == ENGINE_VERSION
        assert len(blob["entries"]) == 2

    def test_corrupt_cache_is_ignored(self, tmp_path):
        src = self._tree(tmp_path, n_files=1, body_reps=2)
        cache_dir = tmp_path / ".abdlint_cache"
        cache_dir.mkdir()
        (cache_dir / "summaries.json").write_text("{not json")
        result = run_engine([str(src)], cache_dir=str(cache_dir))
        assert result.cache.misses == 1
        cache = SummaryCache(str(cache_dir))
        assert cache.lookup(str(next(src.glob("*.py"))))[0] is not None
