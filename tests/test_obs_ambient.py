"""The ambient runtime (:mod:`repro.obs.ambient`): one gate contract for
the sanitize flag, the tracer and the auditor, the snapshot / applied /
merge trio that ships them to workers, and the regressions for errors
raised inside a worker (they must reach the parent, with the provenance
a serial run reports, instead of hanging it).
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.check import sanitize
from repro.check.sanitize import SanitizerError
from repro.core.trainer import ABDHFLTrainer
from repro.obs import Auditor, Tracer, ambient, audit, load_audit, load_trace, trace
from repro.parallel import parallel_map
from test_core_trainer import default_config, small_setup


@dataclass(frozen=True)
class Mechanism:
    """One observer's public gating surface, under its own verbs."""

    name: str
    env_var: str
    default_on: bool  # in the test suite (conftest turns the guard on)
    enabled: Callable[[], bool]
    enable: Callable[..., Any]
    disable: Callable[[], None]
    scope: Callable[[bool], Any]  # context manager forcing on / off
    # record sinks only:
    get: Callable[[], Any] | None = None
    make: Callable[[], Any] | None = None
    scoped: Callable[[Any], Any] | None = None
    fresh: Callable[..., Any] | None = None
    emit: Callable[[Any], None] | None = None
    load: Callable[[Path], list] | None = None


MECHANISMS = [
    Mechanism(
        "sanitize",
        "REPRO_SANITIZE",
        True,
        sanitize.enabled,
        sanitize.enable,
        sanitize.disable,
        scope=sanitize.sanitized,
    ),
    Mechanism(
        "trace",
        "REPRO_TRACE",
        False,
        trace.enabled,
        trace.enable,
        trace.disable,
        scope=lambda on: trace.scoped(Tracer() if on else None),
        get=trace.tracer,
        make=Tracer,
        scoped=trace.scoped,
        fresh=trace.traced,
        emit=lambda tr: tr.instant("a", "c", 0.0),
        load=load_trace,
    ),
    Mechanism(
        "audit",
        "REPRO_AUDIT",
        False,
        audit.enabled,
        audit.enable,
        audit.disable,
        scope=lambda on: audit.scoped(Auditor() if on else None),
        get=audit.auditor,
        make=Auditor,
        scoped=audit.scoped,
        fresh=audit.audited,
        emit=lambda au: au.record("metric", name="gap", value=1.0),
        load=lambda path: load_audit(path, strict=True)[0],
    ),
]
SINKS = [m for m in MECHANISMS if m.make is not None]
_ids = lambda m: m.name  # noqa: E731


@pytest.fixture(autouse=True)
def _restore_slots():
    """Tests flip process-wide state; put every slot back afterwards."""
    before = {name: slot.value for name, slot in ambient._SLOTS.items()}
    yield
    for name, value in before.items():
        ambient._SLOTS[name].value = value


# ======================================================================
# the gate contract, once for all three mechanisms
# ======================================================================
class TestGateContract:
    def test_every_mechanism_is_one_ambient_slot(self):
        assert sorted(ambient._SLOTS) == sorted(m.name for m in MECHANISMS)

    @pytest.mark.parametrize("mech", MECHANISMS, ids=_ids)
    def test_default_state_in_the_suite(self, mech):
        assert mech.enabled() is mech.default_on
        if mech.get is not None:
            assert mech.get() is None

    @pytest.mark.parametrize("mech", MECHANISMS, ids=_ids)
    def test_enable_disable(self, mech):
        mech.disable()
        assert not mech.enabled()
        installed = mech.enable()
        assert mech.enabled()
        if mech.get is not None:
            assert mech.get() is installed
            mech.disable()
            assert mech.get() is None

    @pytest.mark.parametrize("mech", SINKS, ids=_ids)
    def test_enable_accepts_instance(self, mech):
        mine = mech.make()
        assert mech.enable(mine) is mine
        assert mech.get() is mine

    @pytest.mark.parametrize("mech", MECHANISMS, ids=_ids)
    def test_scope_nests_and_restores(self, mech):
        mech.enable()
        with mech.scope(False):
            assert not mech.enabled()
            with mech.scope(True):
                assert mech.enabled()
            assert not mech.enabled()
        assert mech.enabled()

    @pytest.mark.parametrize("mech", MECHANISMS, ids=_ids)
    def test_scope_restores_on_exception(self, mech):
        mech.disable()
        with pytest.raises(RuntimeError):
            with mech.scope(True):
                assert mech.enabled()
                raise RuntimeError
        assert not mech.enabled()

    @pytest.mark.parametrize("mech", SINKS, ids=_ids)
    def test_scoped_restores_previous(self, mech):
        outer = mech.enable()
        inner = mech.make()
        with mech.scoped(inner) as installed:
            assert installed is inner and mech.get() is inner
        assert mech.get() is outer

    @pytest.mark.parametrize("mech", SINKS, ids=_ids)
    def test_fresh_installs_new_instance_and_saves(self, mech, tmp_path):
        outer = mech.enable()
        path = tmp_path / "sub" / "out.jsonl"
        with mech.fresh(path) as instance:
            assert mech.get() is instance is not outer
            mech.emit(instance)
        assert mech.get() is outer
        assert len(mech.load(path)) == 1

    @pytest.mark.parametrize("mech", SINKS, ids=_ids)
    def test_fresh_without_path_saves_nothing(self, mech, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with mech.fresh() as instance:
            mech.emit(instance)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mech", MECHANISMS, ids=_ids)
    def test_env_truthy_words_turn_it_on(self, mech, monkeypatch):
        slot = ambient._SLOTS[mech.name]
        assert slot.env_var == mech.env_var
        monkeypatch.delenv(mech.env_var, raising=False)
        assert not slot.env_on()
        for value in ("1", "true", "ON", "yes", " 1 "):
            monkeypatch.setenv(mech.env_var, value)
            assert slot.env_on(), value
        monkeypatch.setenv(mech.env_var, "")
        assert not slot.env_on()

    def test_env_other_words_leave_the_guard_off(self, monkeypatch):
        for value in ("0", "off", "runs/t.jsonl"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not ambient.SANITIZE.env_on(), value

    @pytest.mark.parametrize("mech", SINKS, ids=_ids)
    def test_env_path_parsing(self, mech, monkeypatch):
        """One rule for all three: a path is a non-truthy word like any
        other — it leaves the sink off, it is never a save target."""
        monkeypatch.setenv(mech.env_var, "runs/t.jsonl")
        assert not ambient._SLOTS[mech.name].env_on()

    def test_disabled_context_is_a_shared_noop(self):
        assert audit.context(members=[1]) is audit.context(level=0)
        with audit.audited() as au:
            with audit.context(members=np.array([3, 4]), level=1):
                au.record("metric", name="gap", value=0.5)
        assert au.records[0]["members"] == [3, 4]
        assert au.records[0]["level"] == 1


# ======================================================================
# snapshot / applied / merge
# ======================================================================
class TestShipping:
    def test_snapshot_is_plain_picklable_state(self):
        with trace.traced(), sanitize.provenance(round_index=4, node_id=2):
            snap = ambient.snapshot()
        assert snap == ({"round_index": 4, "node_id": 2}, {"sanitize", "trace"})
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_applied_recreates_the_state_with_private_sinks(self):
        with trace.traced() as parent, sanitize.provenance(round_index=4):
            snap = ambient.snapshot()
        with sanitize.sanitized(False), audit.audited():
            with ambient.applied(snap) as captured:
                assert sanitize.enabled()
                assert audit.auditor() is None  # forced off, not inherited
                assert trace.tracer() is not parent
                assert sanitize.current_provenance() == {"round_index": 4}
                trace.tracer().instant("task", "c", 0.0)
            assert not sanitize.enabled() and audit.enabled()
        assert [e.name for e in captured["trace"]] == ["task"]
        assert sorted(captured) == ["trace"]

    def test_falsy_snapshot_is_all_off(self):
        with trace.traced(), audit.audited():
            with ambient.applied(None) as captured:
                assert not sanitize.enabled()
                assert trace.tracer() is None and audit.auditor() is None
            assert sanitize.enabled() and trace.enabled()
        assert captured == {}

    def test_merge_extends_installed_sinks_in_call_order(self):
        shards = []
        with trace.traced() as tr, audit.audited() as au:
            snap = ambient.snapshot()
            for i in range(3):
                with ambient.applied(snap) as captured:
                    trace.tracer().instant(f"t{i}", "c", float(i))
                    audit.auditor().record("metric", step=i, name="m", value=i)
                shards.append(captured)
            assert tr.events == [] and au.records == []
            for captured in shards:
                ambient.merge(captured)
        assert [e.name for e in tr.events] == ["t0", "t1", "t2"]
        assert [r["step"] for r in au.records] == [0, 1, 2]

    def test_recording_tracks_sinks_only(self):
        assert sanitize.enabled() and not ambient.recording()
        with audit.audited():
            assert ambient.recording()


# ======================================================================
# errors raised inside a worker
# ======================================================================
def _bounded(fn: Callable[[], Any], seconds: float = 120.0) -> Any:
    """Run ``fn`` on a daemon thread so a parent blocked on a dead pool
    fails the test instead of hanging the suite."""
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test thread below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "parent still blocked: the worker's error was lost"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _provenance_of(error: SanitizerError) -> tuple:
    return (str(error), error.what, error.rule, error.node_id, error.round_index)


def _trip(item: int) -> int:
    """Module-level (spawn-importable) task whose guard always trips."""
    sanitize.assert_finite(np.array([float(item), np.nan]), "poisoned", rule="unit")
    return item


def _record_then_fail_on_two(item: int) -> int:
    trace.tracer().instant(f"task{item}", "c", float(item))
    if item == 2:
        raise RuntimeError("task 2")
    return item


def _trip_through_parallel_map(workers: int) -> SanitizerError:
    with sanitize.provenance(round_index=7, node_id=3):
        with pytest.raises(SanitizerError) as caught:
            parallel_map(_trip, [1, 2], workers=workers)
    return caught.value


def _trip_in_round_two(workers: int | None) -> SanitizerError:
    """Poison the global model after a clean round: every device's
    forward pass trips inside local SGD (in the pool when workers > 1)."""
    hierarchy, datasets, model, test = small_setup(seed=5)
    trainer = ABDHFLTrainer(
        hierarchy, datasets, model, default_config(workers=workers), test, seed=5
    )
    try:
        trainer.run_round(evaluate=False)
        trainer.global_model = np.full_like(trainer.global_model, np.nan)
        with pytest.raises(SanitizerError) as caught:
            trainer.run_round(evaluate=False)
    finally:
        trainer.close()
    return caught.value


class TestWorkerErrors:
    def test_sanitizer_error_round_trips_through_pickle(self):
        error = SanitizerError("boom", what="x", rule="krum", node_id=3, round_index=9)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is SanitizerError
        assert _provenance_of(clone) == ("boom", "x", "krum", 3, 9)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.slow)])
    def test_failing_task_keeps_the_rows_of_those_before_it(self, workers):
        """What a crashed sweep leaves behind is worker-invariant too."""
        run = lambda: parallel_map(_record_then_fail_on_two, range(4), workers)
        with trace.traced() as tr, pytest.raises(RuntimeError, match="task 2"):
            _bounded(run)
        assert [e.name for e in tr.events] == ["task0", "task1"]

    @pytest.mark.slow
    def test_parallel_map_trip_reaches_parent(self):
        pooled = _bounded(lambda: _trip_through_parallel_map(2))
        assert (pooled.what, pooled.rule) == ("poisoned", "unit")
        assert _provenance_of(pooled) == _provenance_of(_trip_through_parallel_map(1))
        assert (pooled.node_id, pooled.round_index) == (3, 7)

    @pytest.mark.slow
    def test_training_pool_trip_reaches_parent(self):
        pooled = _bounded(lambda: _trip_in_round_two(2))
        assert pooled.what == "forward output"
        assert pooled.round_index == 1
        assert _provenance_of(pooled) == _provenance_of(_trip_in_round_two(None))
