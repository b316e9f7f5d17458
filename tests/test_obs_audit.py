"""Defence forensics: audit records, manifests, detection math, CLI.

Pins the three contracts of :mod:`repro.obs.audit`:

* **read-only** — an audited run produces bit-identical model results,
  and the record stream itself is byte-identical for every worker count
  (in-process and across fresh interpreters);
* **schema** — every emitted record validates, invalid lines are counted
  (or fail under ``--strict``), manifests round-trip;
* **analysis** — detection precision/recall/FPR from
  :mod:`repro.obs.audit_report` match hand-computed confusion counts,
  and a run self-diff is exactly zero;

and the run-directory reader ``python -m repro inspect`` over all of it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.matrix import gradient_gap
from repro.obs import audit
from repro.obs.audit_report import build_audit_report, diff_audit
from repro.scenario import matrix_spec, run_scenario, rundir
from test_determinism_subprocess import _run_child

# ----------------------------------------------------------------------
# schema / emission
# ----------------------------------------------------------------------


def test_validate_record_accepts_each_kind():
    records = [
        {"kind": "decision", "step": 1, "rule": "krum", "n": 4,
         "evidence": {"scores": [1.0, 2.0]}, "rejected": [True, False],
         "members": [0, 1]},
        {"kind": "consensus", "step": 0, "protocol": "pbft", "n": 2,
         "accepted": [True, True], "silent": [False, False],
         "byzantine": [False, False], "equivocated": 0, "excluded": 0},
        {"kind": "ground_truth", "step": 0, "n": 3, "byzantine": [2],
         "silent": []},
        {"kind": "fault", "step": 2, "event": "crash", "device": 7},
        {"kind": "metric", "step": 0, "name": "gradient_gap", "value": 1.0},
    ]
    for record in records:
        audit.validate_record(record)


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "nope", "step": 0},
        {"kind": "decision", "step": 0},  # missing required fields
        {"kind": "metric", "step": "zero", "name": "x", "value": 1.0},
        {"kind": "metric", "step": 0, "name": "x", "value": 1.0,
         "bogus": True},  # unknown field
        {"kind": "ground_truth", "step": 0, "n": 2,
         "byzantine": [True], "silent": []},  # bools, not ids
        {"kind": "decision", "step": 0, "rule": "r", "n": 2,
         "evidence": {}, "rejected": [1, 0]},  # ints, not bools
        {"kind": "decision", "step": 0, "rule": "r", "n": 2,
         "evidence": [], "rejected": [True, False]},  # evidence not dict
    ],
)
def test_validate_record_rejects(record):
    with pytest.raises(audit.AuditSchemaError):
        audit.validate_record(record)


def test_context_fields_and_step_precedence():
    au = audit.Auditor()
    with au.context(cell={"defence": "krum"}, members=None):
        au.record("metric", name="gap", value=1.0)
        with au.context(step=7):
            au.record("metric", name="gap", value=2.0)
            au.record("metric", step=9, name="gap", value=3.0)
    assert au.records[0]["cell"] == {"defence": "krum"}
    assert "members" not in au.records[0]  # None context fields dropped
    assert au.records[0]["step"] == 0  # default
    assert au.records[1]["step"] == 7  # ambient frame
    assert au.records[2]["step"] == 9  # explicit beats ambient


def test_records_are_json_safe_and_round_trip(tmp_path):
    au = audit.Auditor()
    au.record(
        "decision",
        rule="krum",
        n=3,
        evidence={"scores": np.array([1.5, np.nan, 2.0]), "f": np.int64(1)},
        rejected=[bool(b) for b in np.array([True, False, True])],
    )
    path = au.save(tmp_path / "audit.jsonl")
    records, skipped = audit.load_audit(path)
    assert skipped == []
    assert records == au.records
    assert records[0]["evidence"]["scores"] == [1.5, None, 2.0]


def test_load_audit_counts_invalid_lines_and_strict_raises(tmp_path):
    good = json.dumps(
        {"kind": "metric", "step": 0, "name": "gap", "value": 1.0}
    )
    path = tmp_path / "audit.jsonl"
    path.write_text(
        f"{good}\nnot json\n\n{json.dumps({'kind': 'nope'})}\n{good}\n",
        encoding="utf-8",
    )
    records, skipped = audit.load_audit(path)
    assert len(records) == 2
    assert [lineno for lineno, _ in skipped] == [2, 4]
    with pytest.raises(audit.AuditSchemaError, match="line 2"):
        audit.load_audit(path, strict=True)


def test_manifest_round_trip(tmp_path):
    manifest = audit.build_manifest(
        command="matrix",
        spec={"defences": ["krum"]},
        seed=7,
        registries={"aggregators": ["krum", "fedavg"]},
    )
    assert manifest["schema"] == audit.AUDIT_SCHEMA_VERSION
    assert manifest["package"]["name"] == "repro"
    path = audit.write_manifest(tmp_path / "run" / "manifest.json", manifest)
    assert audit.load_manifest(path) == manifest
    newer = dict(manifest, schema=audit.AUDIT_SCHEMA_VERSION + 1)
    audit.write_manifest(path, newer)
    with pytest.raises(audit.AuditSchemaError, match="newer"):
        audit.load_manifest(path)


# ----------------------------------------------------------------------
# read-only / bit-identity
# ----------------------------------------------------------------------


def test_gradient_gap_bit_identical_with_auditing():
    kwargs = dict(n_total=7, dim=6, n_trials=2, consensus="pbft", seed=3)
    plain = gradient_gap("krum", "sign_flip", **kwargs)
    with audit.audited() as au:
        audited = gradient_gap("krum", "sign_flip", **kwargs)
    assert audited == plain  # exact float equality
    kinds = {r["kind"] for r in au.records}
    assert {"decision", "consensus", "ground_truth", "metric"} <= kinds
    for record in au.records:
        audit.validate_record(record)


def test_ground_truth_matches_injected_attackers():
    with audit.audited() as au:
        gradient_gap(
            "krum", "sign_flip", n_total=8, byzantine_fraction=0.25,
            dim=4, n_trials=2,
        )
    truths = [r for r in au.records if r["kind"] == "ground_truth"]
    assert len(truths) == 2
    # int(0.25 * 8) = 2 attackers, appended after the 6 honest rows.
    for truth in truths:
        assert truth["byzantine"] == [6, 7]
        assert truth["silent"] == []


@pytest.mark.slow
def test_audit_stream_worker_invariant_in_process():
    def jsonl(workers: int) -> str:
        with audit.scoped(audit.Auditor()) as au:
            run_scenario(
                matrix_spec(
                    defences=("median", "krum"),
                    attacks=("sign_flip",),
                    fractions=(0.25,),
                    n_trials=1,
                ),
                workers=workers,
            )
        assert au.records, "audited sweep recorded nothing"
        return au.to_jsonl()

    assert jsonl(1) == jsonl(2)


AUDIT_CHILD = """
import hashlib
from repro.obs import audit
from repro.scenario import matrix_spec, run_scenario

with audit.scoped(audit.Auditor()) as au:
    run_scenario(
        matrix_spec(
            defences=("median", "trimmed_mean", "krum"),
            attacks=("sign_flip", "scaling"),
            fractions=(0.25,),
            n_trials=2,
            n_total=8,
            dim=6,
        )
    )
print(hashlib.sha256(au.to_jsonl().encode()).hexdigest())
"""


@pytest.mark.slow
def test_audit_stream_worker_invariant_subprocess():
    """REPRO_WORKERS=3 in a fresh interpreter must serialise byte-for-byte
    the same audit stream as the serial run."""
    assert _run_child(AUDIT_CHILD, workers=3) == _run_child(
        AUDIT_CHILD, workers=1
    )


# ----------------------------------------------------------------------
# detection analysis
# ----------------------------------------------------------------------
def _hand_records():
    cell = {"defence": "krum", "attack": "sign_flip"}
    return [
        {"kind": "ground_truth", "step": 0, "n": 4, "cell": cell,
         "byzantine": [2, 3], "silent": []},
        {"kind": "decision", "step": 0, "rule": "krum", "n": 4,
         "cell": cell, "evidence": {}, "members": [0, 1, 2, 3],
         "rejected": [False, False, True, False]},
        {"kind": "metric", "step": 0, "cell": cell,
         "name": "gradient_gap", "value": 1.25},
    ]


def test_detection_precision_recall_fpr_math():
    report = build_audit_report(_hand_records())
    [cell] = report.sorted_cells()
    # device 2 flagged (tp), device 3 kept (fn), 0/1 kept (tn).
    assert (cell.stats.tp, cell.stats.fp, cell.stats.fn, cell.stats.tn) == (
        1, 0, 1, 2,
    )
    assert cell.stats.precision == 1.0
    assert cell.stats.recall == 0.5
    assert cell.stats.fpr == 0.0
    assert cell.truth_byzantine == {2, 3}
    assert cell.metric_means() == {"gradient_gap": 1.25}
    assert cell.devices[2].flagged == 1 and cell.devices[2].byzantine


def test_silent_devices_not_scored():
    records = [
        {"kind": "ground_truth", "step": 0, "n": 3,
         "byzantine": [2], "silent": [1]},
        {"kind": "decision", "step": 0, "rule": "krum", "n": 3,
         "evidence": {}, "members": [0, 1, 2],
         "rejected": [False, True, True]},
    ]
    report = build_audit_report(records)
    [cell] = report.sorted_cells()
    # Device 1 is crash-silent: its rejection is neither tp nor fp.
    assert (cell.stats.tp, cell.stats.fp, cell.stats.fn, cell.stats.tn) == (
        1, 0, 0, 1,
    )


def test_diff_zero_on_self_and_nonzero_on_change():
    records = _hand_records()
    self_diff = diff_audit(records, records)
    assert self_diff.max_abs_delta == 0.0
    assert not self_diff.exceeds(0.0)

    changed = json.loads(json.dumps(records))
    changed[2]["value"] = 1.5
    diff = diff_audit(records, changed)
    [cell] = diff.cells
    assert cell.metrics["gradient_gap"] == pytest.approx(0.25)
    assert diff.exceeds(1e-9)

    other = json.loads(json.dumps(records))
    for record in other:
        record["cell"] = {"defence": "median", "attack": "sign_flip"}
    missing = diff_audit(records, other)
    assert missing.only_a and missing.only_b
    assert missing.exceeds(1e9)  # structural difference beats any tol


# ----------------------------------------------------------------------
# CLI: `inspect` over run directories
# ----------------------------------------------------------------------
def _write_run(tmp_path, name, records):
    """A hand-made run directory holding ``records`` as its audit stream."""
    run_dir = tmp_path / name
    au = audit.Auditor()
    au.records.extend(records)
    au.save(run_dir / "audit.jsonl")
    audit.write_manifest(
        run_dir / "manifest.json", audit.build_manifest(command="test", seed=0)
    )
    return run_dir


def test_cli_audit_report_and_self_diff(tmp_path, capsys):
    run_dir = _write_run(tmp_path, "runA", _hand_records())
    assert main(["inspect", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "Detection vs injected ground truth" in out
    assert "krum/sign_flip" in out
    assert "2,3" in out  # ground-truth attacker ids
    assert "manifest: schema 1" in out
    assert "trace: off" in out

    assert main(
        ["inspect", str(run_dir), "--diff", str(run_dir), "--check"]
    ) == 0
    assert "max |delta| = 0.000e+00" in capsys.readouterr().out


def test_cli_audit_diff_check_fails_on_regression(tmp_path, capsys):
    run_a = _write_run(tmp_path, "runA", _hand_records())
    changed = json.loads(json.dumps(_hand_records()))
    changed[2]["value"] = 2.0
    run_b = _write_run(tmp_path, "runB", changed)
    assert main(
        ["inspect", str(run_a), "--diff", str(run_b), "--check"]
    ) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # Without --check the diff is informational only.
    assert main(["inspect", str(run_a), "--diff", str(run_b)]) == 0
    # --tol is the threshold --check gates on
    argv = ["inspect", str(run_a), "--diff", str(run_b), "--check", "--tol", "1"]
    assert main(argv) == 0


@pytest.mark.parametrize("flags", [["--check"], ["--tol", "1e-3"]])
def test_cli_check_and_tol_need_diff(tmp_path, flags, capsys):
    run_dir = _write_run(tmp_path, "runA", _hand_records())
    with pytest.raises(SystemExit) as exit_info:
        main(["inspect", str(run_dir), *flags])
    assert exit_info.value.code == 2
    assert "require --diff" in capsys.readouterr().err


def test_cli_audit_missing_run(tmp_path, capsys):
    """No directory, a directory without a manifest, a diff against a
    run without the audit stream: exit 2 and one stderr line each."""
    run_dir = _write_run(tmp_path, "runA", _hand_records())
    (tmp_path / "empty").mkdir()
    unaudited = _write_run(tmp_path, "runB", [])
    (unaudited / "audit.jsonl").unlink()
    for argv in (
        [str(tmp_path / "nope")],
        [str(tmp_path / "empty")],
        [str(run_dir), "--diff", str(unaudited)],
        [str(run_dir), "--chrome", str(tmp_path / "t.json")],
    ):
        assert main(["inspect", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro inspect: ")
        assert len(captured.err.splitlines()) == 1


def test_cli_report_lenient_counts_skipped_lines(tmp_path, capsys):
    """One warning path and one --strict for both streams."""
    run_dir = _write_run(tmp_path, "run", _hand_records())
    event = json.dumps(
        {"name": "round", "cat": "trainer", "ph": "X", "t": 0.0, "dur": 1.0}
    )
    (run_dir / "trace.jsonl").write_text(f"{event}\nnot json\n", encoding="utf-8")
    with (run_dir / "audit.jsonl").open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "nope"}\n')
    assert main(["inspect", str(run_dir)]) == 0
    captured = capsys.readouterr()
    assert "1 trace events" in captured.out
    warnings = captured.err.splitlines()
    assert len(warnings) == 2
    assert "trace.jsonl: skipped 1 invalid line(s), first at line 2" in warnings[0]
    assert "audit.jsonl: skipped 1 invalid line(s), first at line 4" in warnings[1]
    assert main(["inspect", str(run_dir), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "trace.jsonl:2: invalid JSON" in captured.err


@pytest.mark.slow
def test_cli_audited_matrix_end_to_end(tmp_path, capsys):
    """--audit on a defence-matrix run leaves records + manifest that
    `inspect` consumes, and whose ground truth names the injected
    attacker set exactly."""
    from repro.scenario import dump_scenario

    spec_path = tmp_path / "matrix.toml"
    dump_scenario(
        matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip", "scaling"),
            fractions=(0.25,),
            n_total=8,
            dim=6,
            n_trials=1,
        ),
        spec_path,
    )
    run_dir = tmp_path / "run"
    argv = ["scenario", "run", str(spec_path), "--out", str(run_dir), "--audit"]
    assert main(argv) == 0
    capsys.readouterr()
    run = rundir.read(run_dir, strict=True)
    assert run.manifest["command"] == f"scenario run {spec_path}"
    assert run.trace is None and run.skipped == {}
    truth = [r for r in run.audit if r["kind"] == "ground_truth"]
    assert truth and all(r["byzantine"] == [6, 7] for r in truth)
    chrome = tmp_path / "trace.chrome.json"
    assert main(["inspect", str(run_dir), "--strict", "--no-timelines"]) == 0
    out = capsys.readouterr().out
    assert "Detection vs injected ground truth" in out
    assert "Suspicion timeline" not in out
    assert main(["inspect", str(run_dir), "--diff", str(run_dir), "--check"]) == 0
    assert main(["inspect", str(run_dir), "--chrome", str(chrome)]) == 2  # no trace


def test_scenario_persist_artifacts(tmp_path):
    spec = matrix_spec(
        name="persist-test",
        defences=("median",),
        attacks=("sign_flip",),
        fractions=(0.25,),
        n_total=6,
        dim=4,
        n_trials=1,
    )
    _, paths = rundir.record(spec, tmp_path / "out", audited=True)
    assert sorted(paths) == [
        "audit", "cells_csv", "cells_json", "manifest", "report",
    ]
    for path in paths.values():
        assert path.is_file()
    from repro.experiments.io import load_records_json

    [cell] = load_records_json(paths["cells_json"])
    assert cell["defence"] == "median" and cell["attack"] == "sign_flip"
    run = rundir.read(tmp_path / "out", strict=True)
    assert run.manifest["spec"]["name"] == "persist-test"
    assert run.manifest["status"] == "complete"
    assert "krum" in run.manifest["registries"]["aggregators"]
    assert run.audit and run.trace is None and run.skipped == {}
    assert run.report == paths["report"].read_text()
