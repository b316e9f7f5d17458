"""Bit-identity regressions for the parallel backend across worker counts.

The contract of :mod:`repro.parallel` is that the worker count is a pure
wall-clock knob: ``workers=N`` must reproduce the serial run bit for bit —
model state, losses, sweep cells, and the merged observability trace.
These tests pin that contract at both fan-out surfaces:

* **round-level** — both trainers' per-node local training, which
  ``LocalFleet`` runs in-process or through a persistent spawn pool
  (``LocalTrainingPool``) with the full RNG/optimizer state round-trip;
* **sweep-level** — experiment drivers sharding independent cells through
  :func:`repro.parallel.parallel_map` with ordered reduction and per-task
  trace scoping.

Everything that spawns is marked ``slow``: spawn pools pay a
fresh-interpreter import per worker.
"""

from __future__ import annotations

import errno
import os
import warnings
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.core import pool as pool_module
from repro.core.config import ABDHFLConfig, TrainingConfig
from repro.core.local import LocalTrainer
from repro.core.pool import (
    DeviceSpec,
    LocalFleet,
    LocalTrainingPool,
    SharedMemoryUnavailable,
    TrainJob,
    _train_shard,
)
from repro.core.trainer import ABDHFLTrainer
from repro.core.vanilla import VanillaFLTrainer
from repro.nn.model import MLP
from repro.obs import Tracer, trace
from repro.parallel import ParameterSlab
from repro.scenario import matrix_spec, run_scenario
from repro.utils.seeding import seeded_generator
from test_core_trainer import default_config, small_setup
from test_determinism_subprocess import (
    TRACE_HASH_SUFFIX,
    TRAINER_CHILD,
    _run_child,
)

# The fault-injected 3-round ABD-HFL child from the cross-process
# determinism suite leaves ``ABDHFLConfig.workers`` unset, so the
# ``REPRO_WORKERS`` environment gate selects the backend — the exact
# production surface a user flips.
TABLE5_CHILD = """
import hashlib
import numpy as np
from repro.experiments import ExperimentConfig
from repro.scenario import accuracy_spec, run_scenario

cfg = ExperimentConfig(
    n_levels=2, cluster_size=4, n_top=2, image_side=8,
    samples_per_client=50, n_test=200, n_rounds=2, hidden=(16,),
)
cells = run_scenario(
    accuracy_spec(
        cfg, fractions=(0.0, 0.5), distributions=("iid",), attacks=("type1",),
    )
).cells
digest = hashlib.sha256()
for c in cells:
    digest.update(np.float64(c.malicious_fraction).tobytes())
    digest.update(np.float64(c.abdhfl_accuracy).tobytes())
    digest.update(np.float64(c.vanilla_accuracy).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.slow
def test_parallel_training_is_bit_identical_to_serial():
    """``REPRO_WORKERS=4`` must hash the fault-injected 3-round training
    exactly like the serial baseline: same global model, same per-round
    accuracy/loss stream."""
    assert _run_child(TRAINER_CHILD, workers=4) == _run_child(
        TRAINER_CHILD, workers=1
    )


def _assert_same_run(serial, pooled) -> None:
    """Global model, history and every per-device parameter vector, loss
    list, RNG position and optimiser slot must be equal bit for bit."""
    np.testing.assert_array_equal(serial.global_model, pooled.global_model)
    assert sorted(serial.trainers) == sorted(pooled.trainers)
    for device in sorted(serial.trainers):
        ref, par = serial.trainers[device], pooled.trainers[device]
        np.testing.assert_array_equal(ref.model.get_flat(), par.model.get_flat())
        assert ref.last_losses == par.last_losses
        assert ref.rng.bit_generator.state == par.rng.bit_generator.state
        ref_step, ref_velocity = ref.optimizer.export_slots()
        par_step, par_velocity = par.optimizer.export_slots()
        assert ref_step == par_step
        if ref_velocity is None:
            assert par_velocity is None
        else:
            for rv, pv in zip(ref_velocity, par_velocity, strict=True):
                np.testing.assert_array_equal(rv, pv)
    assert [r.test_accuracy for r in serial.history] == [
        r.test_accuracy for r in pooled.history
    ]


def _run_abdhfl(workers: int, **config) -> ABDHFLTrainer:
    hierarchy, datasets, model, test = small_setup(seed=3)
    cfg = default_config(workers=workers, **config)
    trainer = ABDHFLTrainer(hierarchy, datasets, model.clone(), cfg, test, seed=3)
    trainer.run(2)
    return trainer


@pytest.mark.slow
def test_parallel_trainer_state_matches_serial_in_process():
    """Beyond the output hash: every per-device RNG state, optimizer step
    count and parameter vector must round-trip unchanged through the
    worker pool."""

    def run(workers: int | None) -> ABDHFLTrainer:
        hierarchy, datasets, model, test = small_setup(seed=3)
        cfg = default_config(workers=workers)
        trainer = ABDHFLTrainer(
            hierarchy, datasets, model.clone(), cfg, test, seed=3
        )
        trainer.run(2)
        return trainer

    serial = run(None)
    parallel = run(2)
    try:
        assert parallel.workers == 2
        np.testing.assert_array_equal(
            serial.global_model, parallel.global_model
        )
        assert sorted(serial.trainers) == sorted(parallel.trainers)
        for device in sorted(serial.trainers):
            ref, par = serial.trainers[device], parallel.trainers[device]
            np.testing.assert_array_equal(
                ref.model.get_flat(), par.model.get_flat()
            )
            assert ref.last_losses == par.last_losses
            assert ref.rng.bit_generator.state == par.rng.bit_generator.state
            ref_step, ref_velocity = ref.optimizer.export_slots()
            par_step, par_velocity = par.optimizer.export_slots()
            assert ref_step == par_step
            if ref_velocity is None:
                assert par_velocity is None
            else:
                for rv, pv in zip(ref_velocity, par_velocity):
                    np.testing.assert_array_equal(rv, pv)
        assert [r.test_accuracy for r in serial.history] == [
            r.test_accuracy for r in parallel.history
        ]
    finally:
        parallel.close()
        serial.close()


@pytest.mark.slow
def test_pooled_momentum_slots_match_serial():
    """Velocity buffers cross the pipe through ``import_slots``."""
    training = TrainingConfig(
        local_iterations=8, batch_size=16, learning_rate=0.1, momentum=0.9
    )
    serial = _run_abdhfl(1, training=training)
    with _run_abdhfl(2, training=training) as pooled:
        _assert_same_run(serial, pooled)
    assert serial.trainers[0].optimizer.export_slots()[1] is not None


@pytest.mark.slow
def test_pooled_pipeline_arrival_matches_serial():
    """Pipeline mode ships a ``GlobalArrival`` per job, merged inside the
    worker's round."""
    config = dict(pipeline_mode=True, global_arrival_iteration=3)
    serial = _run_abdhfl(1, **config)
    with _run_abdhfl(2, **config) as pooled:
        _assert_same_run(serial, pooled)


@pytest.mark.slow
def test_vanilla_pooled_matches_serial():
    def run(workers: int) -> VanillaFLTrainer:
        _, datasets, model, test = small_setup(seed=5)
        trainer = VanillaFLTrainer(
            datasets,
            model.clone(),
            default_config().training,
            test,
            aggregator="median",
            seed=5,
            workers=workers,
        )
        trainer.run(2)
        return trainer

    serial = run(1)
    with run(2) as pooled:
        _assert_same_run(serial, pooled)


@pytest.mark.slow
def test_config_workers_validated_and_serial_by_default():
    with pytest.raises(ValueError):
        ABDHFLConfig(workers=0)
    hierarchy, datasets, model, test = small_setup()
    trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
    assert trainer.workers == 1
    assert trainer._fleet._pool is None


@pytest.mark.slow
def test_matrix_cells_identical_across_worker_counts():
    spec = matrix_spec(
        defences=("median", "trimmed_mean", "krum"),
        attacks=("sign_flip", "scaling"),
        fractions=(0.25,),
        n_trials=2,
    )
    serial = run_scenario(spec, workers=1).cells
    sharded = run_scenario(spec, workers=3).cells
    # Dataclass equality is exact: the gap floats must match bit for bit,
    # in the same (defence, attack) order.
    assert serial == sharded


@pytest.mark.slow
def test_matrix_trace_is_byte_identical_across_worker_counts():
    """Per-worker trace shards merged in input order must serialise to
    exactly the serial trace — the schema-valid JSONL a report consumes."""

    def jsonl(workers: int) -> str:
        with trace.scoped(Tracer()) as tr:
            run_scenario(
                matrix_spec(
                    defences=("median", "krum"),
                    attacks=("sign_flip",),
                    fractions=(0.25,),
                    n_trials=1,
                ),
                workers=workers,
            )
        assert tr.events, "traced sweep recorded nothing"
        return tr.to_jsonl()

    assert jsonl(1) == jsonl(2)


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


ON_POSIX_SHM = os.path.isdir("/dev/shm")


@contextmanager
def _recorded_slabs() -> Iterator[list[str]]:
    """Record the name of every slab created inside the block."""
    names: list[str] = []
    create = ParameterSlab.create

    def recording(rows: int, dim: int) -> ParameterSlab:
        slab = create(rows, dim)
        names.append(slab.name)
        return slab

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParameterSlab, "create", recording)
        yield names


def _must_not_spawn():
    raise AssertionError("a worker pool was spawned")


class _SpawnFails:
    """Stands in for ``spawn_context()``: the pool constructor raises."""

    def Pool(self, **kwargs):
        raise OSError(errno.EMFILE, "Too many open files")


def _two_specs(seed: int) -> tuple[MLP, list[DeviceSpec]]:
    _, datasets, model, _ = small_setup(seed=seed)
    cfg = default_config().training
    return model, [DeviceSpec(cid, datasets[cid], cfg) for cid in sorted(datasets)[:2]]


needs_dev_shm = pytest.mark.skipif(
    not ON_POSIX_SHM, reason="needs /dev/shm to observe segments"
)


@needs_dev_shm
def test_failed_spawn_releases_both_slabs(monkeypatch):
    model, specs = _two_specs(seed=19)
    monkeypatch.setattr(pool_module, "spawn_context", _SpawnFails)
    with _recorded_slabs() as names, pytest.raises(OSError) as error:
        LocalTrainingPool(model, specs, 2)
    assert error.value.errno == errno.EMFILE
    assert not isinstance(error.value, SharedMemoryUnavailable)
    assert len(names) == 2
    assert not any(_segment_exists(name) for name in names)


@needs_dev_shm
def test_failed_second_slab_releases_the_first(monkeypatch):
    model, specs = _two_specs(seed=19)
    names: list[str] = []
    create = ParameterSlab.create

    def second_fails(rows: int, dim: int) -> ParameterSlab:
        if names:
            raise OSError(errno.ENOSPC, "No space left on device")
        slab = create(rows, dim)
        names.append(slab.name)
        return slab

    monkeypatch.setattr(ParameterSlab, "create", second_fails)
    monkeypatch.setattr(pool_module, "spawn_context", _must_not_spawn)
    with pytest.raises(SharedMemoryUnavailable):
        LocalTrainingPool(model, specs, 2)
    assert len(names) == 1 and not _segment_exists(names[0])


def test_without_shared_memory_the_fleet_trains_in_process(monkeypatch):
    """No second transport: where the slabs cannot be created the run
    warns once, spawns nothing and stays bit-identical to ``workers=1``."""

    def no_shm(rows: int, dim: int) -> ParameterSlab:
        raise OSError(errno.ENOSYS, "Function not implemented")

    monkeypatch.setattr(ParameterSlab, "create", no_shm)
    monkeypatch.setattr(pool_module, "spawn_context", _must_not_spawn)
    serial = _run_abdhfl(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = _run_abdhfl(2)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "in-process" in str(caught[0].message)
    assert fallback.workers == 2
    _assert_same_run(serial, fallback)


class TestParameterSlab:
    """Unit coverage for the shared-memory slab the pool rides on."""

    def test_attach_sees_owner_bytes_and_generation(self):
        with ParameterSlab.create(3, 5) as owner:
            owner.array[:] = np.arange(15, dtype=np.float64).reshape(3, 5)
            owner.generation = 7
            peer = ParameterSlab.attach(owner.name, 3, 5)
            try:
                assert peer.generation == 7
                np.testing.assert_array_equal(peer.array, owner.array)
                peer.array[1, 2] = -4.5  # writes flow back to the owner
                assert owner.array[1, 2] == -4.5
            finally:
                peer.close()

    def test_close_is_idempotent_and_access_after_close_raises(self):
        slab = ParameterSlab.create(2, 2)
        slab.unlink()
        slab.close()
        slab.close()
        for attr in ("array", "generation", "name"):
            with pytest.raises(RuntimeError, match="closed"):
                getattr(slab, attr)

    def test_unlink_after_close_is_a_programming_error(self):
        slab = ParameterSlab.create(2, 2)
        name = slab.name
        slab.close()
        with pytest.raises(RuntimeError, match="unlink first"):
            slab.unlink()
        # The segment leaked by construction here; reap it directly.
        if ON_POSIX_SHM and _segment_exists(name):
            os.unlink(os.path.join("/dev/shm", name))

    def test_attacher_never_unlinks(self):
        owner = ParameterSlab.create(2, 3)
        name = owner.name
        peer = ParameterSlab.attach(name, 2, 3)
        with peer:  # exit calls unlink() then close(); unlink must no-op
            pass
        if ON_POSIX_SHM:
            assert _segment_exists(name), "attacher removed the segment"
        owner.unlink()
        owner.close()
        if ON_POSIX_SHM:
            assert not _segment_exists(name)

    def test_rejects_empty_shapes(self):
        with pytest.raises(ValueError, match="positive shape"):
            ParameterSlab.create(0, 4)


def _fanout_parents(
    specs: list[DeviceSpec], model
) -> dict[int, LocalTrainer]:
    return {
        spec.device_id: LocalTrainer(
            device_id=spec.device_id,
            dataset=spec.dataset,
            model=model.clone(),
            config=spec.config,
            rng=seeded_generator(1000 + spec.device_id),
        )
        for spec in specs
    }


def _run_fanout_rounds(
    model, specs: list[DeviceSpec], workers: int, n_rounds: int = 2
) -> tuple[dict[int, np.ndarray], dict[int, LocalTrainer]]:
    """Drive ``n_rounds`` of per-device SGD through a ``LocalFleet``,
    chaining each round's start from the mean of the previous round."""
    parents = _fanout_parents(specs, model)
    fleet = LocalFleet(parents, model, workers)
    start = model.get_flat()
    try:
        for _ in range(n_rounds):
            vectors, _ = fleet.train([(spec.device_id, start, None) for spec in specs])
            start = np.mean(np.stack([vectors[s.device_id] for s in specs]), axis=0)
    finally:
        fleet.close()
    return vectors, parents


@pytest.mark.slow
def test_pooled_fleet_bit_identical_to_serial():
    """The worker count only moves bytes: per-device vectors, losses and
    RNG / optimiser states must match the in-process run bit for bit,
    and closing the fleet must leave no segment behind."""
    hierarchy, datasets, model, test = small_setup(seed=11)
    cfg = default_config().training
    specs = [DeviceSpec(cid, datasets[cid], cfg) for cid in sorted(datasets)[:6]]

    serial_vecs, serial_parents = _run_fanout_rounds(model, specs, workers=1)
    with _recorded_slabs() as slab_names:
        vecs, parents = _run_fanout_rounds(model, specs, workers=3)
    assert len(slab_names) == 2, "the pooled run did not ride shared memory"
    if ON_POSIX_SHM:  # leak check: close() must unlink
        assert not any(_segment_exists(name) for name in slab_names)
    for spec in specs:
        cid = spec.device_id
        assert serial_vecs[cid].tobytes() == vecs[cid].tobytes(), cid
        assert serial_parents[cid].last_losses == parents[cid].last_losses, cid
        assert (
            serial_parents[cid].export_state()[:5]
            == parents[cid].export_state()[:5]
        ), cid


@pytest.mark.slow
def test_stale_generation_jobs_fail_loudly():
    """A job whose generation does not match the slab stamp must be
    refused by the worker, not silently trained on stale bytes."""
    model, specs = _two_specs(seed=13)
    pool = LocalTrainingPool(model, specs, workers=2)
    try:
        parents = _fanout_parents(specs, model)
        start = model.get_flat()
        pool.train_round(  # legitimate round: generation = 1
            [
                (spec.device_id, start, None, parents[spec.device_id].export_state())
                for spec in specs
            ]
        )
        stale = TrainJob(
            device_id=specs[0].device_id,
            row=0,
            generation=999,
            arrival=None,
            state=parents[specs[0].device_id].export_state(),
        )
        assert pool._pool is not None
        with pytest.raises(RuntimeError, match="stale-generation"):
            pool._pool.apply(_train_shard, (([stale], False),))
    finally:
        pool.close()


@pytest.mark.slow
def test_pool_close_unlinks_segments_and_is_idempotent():
    model, specs = _two_specs(seed=17)
    pool = LocalTrainingPool(model, specs, workers=2)
    assert pool.uses_shm
    names = [slab.name for slab in pool._slabs]
    if ON_POSIX_SHM:
        assert all(_segment_exists(name) for name in names)
    pool.close()
    pool.close()  # idempotent
    if ON_POSIX_SHM:
        assert not any(_segment_exists(name) for name in names)
    with pytest.raises(RuntimeError, match="closed"):
        pool.train_round([])


@pytest.mark.slow
def test_table5_results_and_trace_worker_invariant():
    """The sweep surface end to end, driven purely by the environment:
    ``REPRO_WORKERS=4`` under ``REPRO_TRACE`` must reproduce the serial
    cells *and* the serial trace byte for byte."""
    serial = _run_child(TABLE5_CHILD + TRACE_HASH_SUFFIX, trace="1", workers=1)
    sharded = _run_child(TABLE5_CHILD + TRACE_HASH_SUFFIX, trace="1", workers=4)
    assert serial == sharded  # result digest AND trace hash
