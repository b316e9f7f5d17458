"""Self-tests of the ledger (outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import compare
import layers
import run
import workloads
from spans import Recorder, read_jsonl, self_times

MANIFEST = run.load_manifest()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; b holds c [6, 8].
    spans = [
        ["root", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["b", 5.0, 9.0, 0, 1, None],
        ["c", 6.0, 8.0, 2, 1, None],
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    # Self times telescope: they add up to the root's duration.
    assert sum(self_times(spans)) == 10.0


def test_recorder_nests_by_call_stack_and_round_trips(tmp_path):
    class Program:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    rec = Recorder("w")
    rec.wrap(Program, "outer", "p.outer", counts=lambda a, result, s: {"n": result})
    rec.wrap(Program, "inner", "p.inner")
    rec.round = 3
    assert Program().outer() == 2
    rec.restore()
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("p.outer", -1, 3),
        ("p.inner", 0, 3),
        ("p.inner", 0, 3),
    ]
    assert rec.spans[0][5] == {"n": 2}
    rec.write_jsonl(tmp_path / "s.jsonl")
    assert read_jsonl(tmp_path / "s.jsonl") == rec.spans
    first = json.loads((tmp_path / "s.jsonl").read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "round", "workload"} <= set(first)


def test_wrappers_are_restored_even_on_exception():
    workloads.import_program()
    from repro.aggregation.base import Aggregator
    from repro.core import trainer as trainer_module
    from repro.core.trainer import ABDHFLTrainer
    from repro.nn.model import Sequential

    originals = (
        ABDHFLTrainer.run_round,
        Sequential.forward,
        Aggregator.__call__,
        trainer_module.ParameterMatrix,
        trainer_module.incremental_from,
    )

    def patched():
        return (
            ABDHFLTrainer.run_round,
            Sequential.forward,
            Aggregator.__call__,
            trainer_module.ParameterMatrix,
            trainer_module.incremental_from,
        )

    with pytest.raises(RuntimeError, match="boom"):
        with layers.instrumented(Recorder("w")):
            assert all(now is not was for now, was in zip(patched(), originals))
            raise RuntimeError("boom")
    assert patched() == originals


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def test_manifest_declares_exactly_the_workloads_with_legal_names():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in MANIFEST["workloads"]] + list(MANIFEST["units"])
    assert len(names) == len(set(names))
    assert all(map(run.NAME_RULE.fullmatch, names))
    assert {m["name"] for m in MANIFEST["end_to_end"]} == set(run.END_TO_END)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_workload_is_finite_and_emits_the_declared_metrics(name, tmp_path):
    workload = workloads.smoke(workloads.WORKLOADS[name])
    assert workload.n_devices <= 16 and workload.rounds == 2
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    untraced = run.run_one(workload, 0, False, t0, tmp_path)
    traced = run.run_one(workload, 0, True, t0, tmp_path)
    assert traced["digest"] == untraced["digest"]
    assert traced["rounds_failed"] == 0 and len(traced["round_wall_s"]) == 2
    assert np.isfinite(traced["accuracy"]).all()

    cells = run.end_to_end(workload, [untraced])
    assert set(cells["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert (cells["attempted"], cells["failed"]) == (2, 0)

    metrics = layers.layer_metrics(
        read_jsonl(tmp_path / f"{name}.spans.jsonl"),
        workload.local_iterations,
        workload.workers,
        traced["round_wall_s"],
        untraced,
        1.0 if workload.baseline else None,
    )
    assert set(metrics) == {m["name"] for m in MANIFEST["per_layer"]}
    assert np.isfinite(list(metrics.values())).all()
    assert 0.98 <= metrics["trace.coverage"] <= 1.02
    assert metrics["consensus.acs_min_subset_margin"] >= 0
    if workload.workers > 1:
        assert metrics["shm.used"] == 1 and metrics["pool.jobs"] == 2 * 16
        assert metrics["local.calls"] == 0  # worker internals are out of reach
    else:
        assert metrics["local.calls"] == 2 * workload.n_devices
        assert metrics["pool.jobs"] == 0
    assert (metrics["sim.events"] > 0) == (workload.cba == "acs")
    assert (metrics["attacks.calls"] > 0) == (workload.attack is not None)


def test_acs196_marking_fills_max_faulty_at_every_level():
    from repro.check.invariants import max_faulty
    from repro.topology.tree import build_ecsm

    full = workloads.WORKLOADS["acs196"]
    hierarchy = build_ecsm(full.n_levels, full.cluster_size, full.n_top)
    marked = workloads.mark_acs_byzantine(hierarchy)
    assert len(marked) == 56 and len(hierarchy.bottom_clients()) == 196
    assert [m in marked for m in hierarchy.top_cluster.members] == [0, 0, 0, 1]
    hierarchies = [hierarchy]
    for seed in range(5):  # and through the builder, at self-test size
        trainer = workloads.build(workloads.smoke(full), seed, Recorder("w").span)
        hierarchies.append(trainer.hierarchy)
    for h in hierarchies:
        for level in range(h.n_levels):
            for cluster in h.clusters_at(level):
                held = sum(h.is_byzantine(m) for m in cluster.members)
                assert held == max_faulty(cluster.size)


def test_time_to_target_counts_the_warm_up_as_a_round():
    rep = {"accuracy": [0.1, 0.2, 0.6, 0.7], "round_wall_s": [1.0, 2.0, 4.0]}
    assert run.time_to_target(rep, 0.5) == 3.0
    assert run.time_to_target(rep, 0.05) == 0.0  # the warm-up round got there
    assert run.time_to_target(rep, 0.9) is None


def test_a_dead_rep_fails_all_its_rounds():
    workload = workloads.WORKLOADS["acs196"]
    cells = run.end_to_end(workload, [None, None])
    assert cells == {"metrics": {}, "attempted": 16, "failed": 16}


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]

    def by(factor: float) -> list[float]:
        return [v * factor for v in steady]

    assert compare.verdict(steady, by(1.0), "lower", 0.05)[0] == "within"
    assert compare.verdict(steady, by(1.03), "lower", 0.05)[0] == "within"
    assert compare.verdict(steady, by(1.10), "lower", 0.05)[0] == "worse"
    assert compare.verdict(steady, by(0.90), "lower", 0.05)[0] == "better"
    # Direction flips with ``better``: a 10 % higher throughput is a gain.
    assert compare.verdict(steady, by(1.10), "higher", 0.05)[0] == "better"
    assert compare.verdict(steady, by(0.90), "higher", 0.05)[0] == "worse"
    # Spread wider than the bound with overlapping runs cannot be judged...
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    assert compare.verdict(noisy, [v * 1.04 for v in noisy], "lower", 0.05)[0] == (
        "unresolved"
    )
    # ...unless every run of the change beats every run of the parent.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.05)[0] == (
        "better"
    )
    # Three reps cannot show a gain, however clean the sweep.
    assert compare.verdict(steady[:3], by(0.9)[:3], "lower", 0.05)[0] == "within"
    word, worse_by = compare.verdict([0.9, 0.9], [0.9, 0.9], "higher", 0.05)
    assert (word, worse_by) == ("within", 0.0)


def test_compare_reports_end_to_end(tmp_path, capsys):
    def report(factor: float) -> dict:
        cell = {"per_rep": [factor * v for v in (2.0, 2.02, 1.98)]}
        return {
            "bounds": {"rounds_per_s": {"better": "higher", "bound": 0.05}},
            "units": {"rounds_per_s": "rounds/s"},
            "end_to_end": {"fleet512": {"metrics": {"rounds_per_s": cell}}},
        }

    (tmp_path / "parent.json").write_text(json.dumps(report(1.0)))
    (tmp_path / "same.json").write_text(json.dumps(report(1.01)))
    (tmp_path / "slow.json").write_text(json.dumps(report(0.8)))
    assert compare.compare_reports(tmp_path / "parent.json", tmp_path / "same.json") == 0
    assert "within" in capsys.readouterr().out
    assert compare.compare_reports(tmp_path / "parent.json", tmp_path / "slow.json") == 1
    out = capsys.readouterr().out
    assert "worse" in out and "-20.00% of 2" in out
