"""Tests for result persistence and the CLI."""

import argparse
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments.io import load_records_json, save_records_json
from repro.experiments.table5 import Table5Cell
from repro.obs import trace
from repro.scenario import (
    KINDS,
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


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        assert parser.parse_args(["scenario", "list"]).command == "scenario"
        assert parser.parse_args(["inspect", "run"]).command == "inspect"
        assert parser.parse_args(["lint"]).command == "lint"
        # exactly three commands, and no root option besides -h
        [commands] = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(commands.choices) == ["scenario", "inspect", "lint"]
        assert [a.dest for a in parser._actions] == ["help", "command"]

    @pytest.mark.parametrize(
        "command",
        ["table5", "figure3", "schemes", "pipeline", "tolerance", "matrix",
         "report", "audit"],
    )
    def test_removed_subcommands_exit_2(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--seed", "--rounds", "--paper-scale",
         "--out", "--trace", "--audit", "--workers"],
    )
    def test_removed_root_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "1", "scenario", "list"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("switch", ["--trace", "--audit"])
    def test_stream_switches_need_a_run_directory(self, switch, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "run", "smoke", switch])
        assert exit_info.value.code == 2
        assert "require --out DIR" in capsys.readouterr().err

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
        assert main(["scenario", "run", spec, "--out", str(tmp_path / "run")]) == 0
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
    """A traced + audited `scenario run --out DIR` leaves one directory —
    the only copy of every artifact — that `repro inspect` reads."""
    out = tmp_path / "run"
    argv = ["scenario", "run", "smoke", "--out", str(out), "--trace", "--audit"]
    assert main(argv) == 0
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "run", "run/audit.jsonl", "run/cells.csv", "run/cells.json",
        "run/manifest.json", "run/report.txt", "run/trace.jsonl",
    ]
    table = capsys.readouterr().out.split("saved ")[0]
    assert main(["inspect", str(out), "--strict"]) == 0
    shown = capsys.readouterr().out
    assert shown.startswith("manifest: schema 1, ")
    assert "command scenario run smoke, seed 7\nstatus: complete\n" in shown
    assert table in shown  # report.txt as stored
    assert "8 trace events" in shown
    assert "Detection vs injected ground truth" in shown


def test_stream_off_is_absent_and_on_but_empty_is_an_empty_file(tmp_path, capsys):
    """`pipeline` emits trace events but no audit record: the audited
    run leaves an empty audit.jsonl, the unaudited one none."""
    on, off = tmp_path / "on", tmp_path / "off"
    assert main(["scenario", "run", "pipeline", "--out", str(on), "--audit"]) == 0
    assert main(["scenario", "run", "pipeline", "--out", str(off)]) == 0
    assert (on / "audit.jsonl").read_bytes() == b""
    assert not (off / "audit.jsonl").exists() and not (on / "trace.jsonl").exists()
    capsys.readouterr()
    assert main(["inspect", str(on)]) == 0
    shown = capsys.readouterr().out
    assert "trace: off" in shown and "0 records" in shown
    assert main(["inspect", str(off)]) == 0
    assert "audit: off" in capsys.readouterr().out


def test_crashed_run_leaves_the_evidence(tmp_path, monkeypatch, capsys):
    """A cell task that raises after its rounds: the exception propagates, the
    manifest (on disk before the first cell) says why, and both streams
    hold exactly the rows of the cells that finished."""
    good, bad = tmp_path / "good", tmp_path / "bad"
    argv = ["scenario", "run", "smoke", "--trace", "--audit", "--out"]
    assert main([*argv, str(good)]) == 0
    capsys.readouterr()

    kind = KINDS["defence_matrix"]
    seen_at_first_cell = []

    def task(item):
        seen_at_first_cell.append(sorted(p.name for p in bad.iterdir()))
        gap = kind.task(item)  # the cell's rounds run (and record) first
        if item[1].index == 1:
            raise RuntimeError("boom in cell 1")
        return gap

    monkeypatch.setitem(KINDS, "defence_matrix", replace(kind, task=task))
    with pytest.raises(RuntimeError, match="boom in cell 1"):
        main([*argv, str(bad)])

    assert seen_at_first_cell[0] == ["manifest.json"]
    assert sorted(p.name for p in bad.iterdir()) == [
        "audit.jsonl", "manifest.json", "trace.jsonl",
    ]
    for name in ("trace.jsonl", "audit.jsonl"):
        kept = (bad / name).read_text()
        assert kept and (good / name).read_text().startswith(kept)
        assert kept != (good / name).read_text()
    assert main(["inspect", str(bad), "--strict"]) == 0
    shown = capsys.readouterr().out
    assert "status: failed - RuntimeError('boom in cell 1')" in shown


def test_inspect_records_nothing_about_itself(tmp_path, capsys):
    """`inspect` is a pure consumer: run with the tracer on (as under
    REPRO_TRACE=1) it emits no event and touches no file."""
    out = tmp_path / "run"
    assert main(["scenario", "run", "smoke", "--out", str(out), "--trace"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with trace.traced() as tr:
        assert main(["inspect", str(out)]) == 0
    assert tr.events == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
