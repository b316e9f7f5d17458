"""Tests for result persistence and the CLI."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.trainer import RoundRecord
from repro.core.vanilla import VanillaRoundRecord
from repro.experiments.io import (
    load_curves_npz,
    load_history_csv,
    load_records_json,
    save_curves_npz,
    save_history_csv,
    save_records_json,
)
from repro.experiments.table5 import Table5Cell
from repro.obs import audit
from repro.scenario import (
    DataSpec,
    PipelineSpec,
    TopologySpec,
    TrainingSpec,
    dump_scenario,
    load_shipped_spec,
)

#: Section overrides shrinking any shipped trainer-based spec to seconds.
TINY = dict(
    topology=TopologySpec(n_levels=2, cluster_size=4, n_top=2),
    data=DataSpec(image_side=8, samples_per_client=50, n_test=200),
    training=TrainingSpec(hidden=(16,), n_rounds=2),
)


def tiny_spec_file(tmp_path, shipped, **changes):
    """A reduced copy of a shipped spec, written where the CLI can run it."""
    path = tmp_path / f"{shipped}.toml"
    dump_scenario(replace(load_shipped_spec(shipped), **changes), path)
    return str(path)


class TestHistoryCSV:
    def test_round_trip(self, tmp_path):
        history = [
            RoundRecord(0, 0.5, 1.2, 0.9),
            RoundRecord(1, 0.6, 1.0, 0.8),
        ]
        path = save_history_csv(tmp_path / "h.csv", history)
        rows = load_history_csv(path)
        assert rows[0]["round_index"] == 0
        assert rows[1]["test_accuracy"] == pytest.approx(0.6)
        assert len(rows) == 2

    def test_vanilla_records_share_schema(self, tmp_path):
        history = [VanillaRoundRecord(0, 0.4, 2.0, 1.5)]
        path = save_history_csv(tmp_path / "v.csv", history)
        rows = load_history_csv(path)
        assert rows[0]["test_loss"] == pytest.approx(2.0)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_history_csv(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = save_history_csv(tmp_path / "deep" / "dir" / "h.csv", [])
        assert path.exists()


class TestCellsJSON:
    def test_round_trip(self, tmp_path):
        cells = [
            Table5Cell(True, "type1", 0.5, 0.88, 0.10, 0.01, 0.0, 2),
            Table5Cell(False, "type2", 0.0, 0.55, 0.50),
        ]
        path = save_records_json(tmp_path / "cells.json", cells)
        back = [Table5Cell(**row) for row in load_records_json(path)]
        assert back == cells

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_records_json(path)


class TestCurvesNPZ:
    def test_round_trip(self, tmp_path):
        path = save_curves_npz(
            tmp_path / "c.npz",
            rounds=np.arange(5),
            mean=np.linspace(0, 1, 5),
        )
        back = load_curves_npz(path)
        np.testing.assert_array_equal(back["rounds"], np.arange(5))
        assert set(back) == {"rounds", "mean"}

    def test_dataclass_rejected(self, tmp_path):
        cell = Table5Cell(True, "type1", 0.0, 0.9, 0.9)
        with pytest.raises(TypeError):
            save_curves_npz(tmp_path / "c.npz", cell=cell)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        assert parser.parse_args(["scenario", "list"]).command == "scenario"
        assert parser.parse_args(["report", "t.jsonl"]).command == "report"
        assert parser.parse_args(["audit", "run"]).command == "audit"
        assert parser.parse_args(["lint"]).command == "lint"

    @pytest.mark.parametrize(
        "command",
        ["table5", "figure3", "schemes", "pipeline", "tolerance", "matrix"],
    )
    def test_removed_subcommands_exit_2(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--rounds", "--paper-scale"])
    def test_removed_root_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "1", "scenario", "list"])
        assert exit_info.value.code == 2

    def test_tolerance_closed_form(self, tmp_path, capsys):
        spec = tiny_spec_file(tmp_path, "tolerance", fractions=(0.0, 0.5), **TINY)
        assert main(["scenario", "run", spec]) == 0
        out = capsys.readouterr().out
        assert "57.8125%" in out
        assert "empirical sweep (bound 43.7500%)" in out
        assert "<-- above bound" in out

    def test_pipeline_command(self, tmp_path, capsys):
        spec = tiny_spec_file(
            tmp_path, "pipeline", pipeline=PipelineSpec(n_rounds=5)
        )
        assert main(["scenario", "run", spec]) == 0
        out = capsys.readouterr().out
        assert "overall efficiency" in out

    def test_matrix_command(self, capsys):
        assert main(["scenario", "run", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "krum" in out

    def test_table5_tiny_with_out(self, tmp_path, capsys):
        spec = tiny_spec_file(
            tmp_path, "table5", fractions=(0.0,), attacks=("type1",),
            distributions=("iid",), seed=7, **TINY,
        )
        assert main(["--out", str(tmp_path / "run"), "scenario", "run", spec]) == 0
        cells = load_records_json(tmp_path / "run" / "cells.json")
        assert len(cells) == 1
        assert Table5Cell(**cells[0]).attack == "type1"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_scenario_list_shows_every_shipped_spec(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("table5", "figure3", "schemes", "backdoor", "tolerance",
                     "pipeline", "defence_matrix"):
            assert name in out


class TestSpecResolution:
    """`resolve_spec` reads regular files only and reports unreadable
    paths through the ValueError route (no tracebacks)."""

    def test_directory_named_like_a_shipped_spec_does_not_shadow_it(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "run", "smoke", "--out", "smoke"]) == 0
        assert (tmp_path / "smoke").is_dir()
        capsys.readouterr()
        assert main(["scenario", "run", "smoke"]) == 0
        assert "krum" in capsys.readouterr().out

    def test_validate_missing_file_is_invalid_not_a_traceback(self, capsys):
        assert main(["scenario", "validate", "missing.toml"]) == 1
        assert "missing.toml: INVALID - " in capsys.readouterr().out

    def test_run_unreadable_path_exits_2_with_one_line(self, tmp_path, capsys):
        (tmp_path / "dir.toml").mkdir()
        for ref in ("missing.toml", str(tmp_path / "dir.toml")):
            assert main(["scenario", "run", ref]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("repro scenario: ")
            assert len(captured.err.splitlines()) == 1


def test_run_directory_gathers_every_artifact(tmp_path, capsys):
    """A traced + audited `scenario run --out DIR` leaves one directory
    both `repro report` and `repro audit` read."""
    out, copy = tmp_path / "run", tmp_path / "trace-copy.jsonl"
    argv = ["--trace", str(copy), "--audit", str(tmp_path / "audit-copy.jsonl")]
    assert main([*argv, "scenario", "run", "smoke", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "audit.jsonl", "cells.csv", "cells.json", "manifest.json",
        "report.txt", "trace.jsonl",
    ]
    assert (out / "trace.jsonl").read_bytes() == copy.read_bytes()
    assert audit.load_manifest(out / "manifest.json")["spec"]["name"] == "smoke"
    capsys.readouterr()
    assert main(["report", str(out / "trace.jsonl"), "--strict"]) == 0
    assert main(["audit", str(out), "--strict"]) == 0
