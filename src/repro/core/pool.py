"""Round-level fan-out: per-device local SGD in persistent spawn workers.

The parent trainer stays the single source of truth.  Datasets and the
model architecture ship *once* (in the pool initializer); every round the
parent publishes each live device's start vector and receives its trained
vector back through a pair of shared-memory parameter slabs
(:class:`repro.parallel.shm.ParameterSlab`) — device-ordered ``(n, d)``
float64 segments stamped with the round generation — so the per-round
parameter bytes are never pickled.  The :class:`TrainJob` that does cross
the pipe carries only the device id, its slab row, the generation, the
optional global-arrival merge, and the compact round-trip *state delta*
(:meth:`repro.core.local.LocalTrainer.export_state_delta`: RNG stream
position + optimiser slots).  Workers refuse jobs whose generation does
not match the slab stamp, so a stale vector fails loudly.

When shared memory is unavailable (or disabled), the pool transparently
falls back to the original pickled-vector path: ``use_shm`` only moves
bytes, never bits — ``tests/test_parallel_determinism.py`` pins the two
paths (and every worker count) byte-identical to a serial run.

Because the replica starts from the shipped state and ``train_round``
overwrites every model parameter from the start vector, the device's SGD
trajectory is a pure function of the job — which worker runs it, and in
which order, cannot matter.  That is the whole bit-identity argument.

Shutdown is graceful: :meth:`LocalTrainingPool.close` drains the workers
with ``close()``/``join()`` under a bounded timeout (terminating only a
hung pool) and then unlinks each slab exactly once — a worker can no
longer be killed mid-write with the segment left in ``/dev/shm``.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from multiprocessing import pool

from repro.core.config import TrainingConfig
from repro.core.local import GlobalArrival, LocalTrainer
from repro.data.dataset import Dataset
from repro.nn.model import Sequential
from repro.obs import ambient
from repro.parallel import ENV_VAR, ParameterSlab, spawn_context
from repro.utils.seeding import seeded_generator

__all__ = ["DeviceSpec", "TrainJob", "TrainResult", "LocalTrainingPool"]


@dataclass(frozen=True)
class DeviceSpec:
    """Per-device immutables shipped once at pool creation."""

    device_id: int
    dataset: Dataset
    config: TrainingConfig


@dataclass(frozen=True)
class TrainJob:
    """One device's work for one round.

    On the shared-memory path ``start_vector`` is ``None`` and the worker
    reads slab row ``row`` instead, after checking ``generation`` against
    the slab stamp; the pickled fallback ships the vector inline with
    ``row = generation = -1``.  ``state`` is the compact delta tuple from
    :meth:`~repro.core.local.LocalTrainer.export_state_delta`.
    """

    device_id: int
    start_vector: np.ndarray | None
    arrival: GlobalArrival | None
    state: tuple[object, ...]
    row: int = -1
    generation: int = -1


@dataclass(frozen=True)
class TrainResult:
    """What a replica sends back: trained vector, losses, advanced state.

    On the shared-memory path ``vector`` is ``None`` in transit (the
    bytes live in the result slab row); the pool fills it in before the
    caller sees the result, so consumers never observe the transport.
    """

    device_id: int
    vector: np.ndarray | None
    losses: list[float]
    state: tuple[object, ...]
    row: int = -1
    generation: int = -1


# Worker-process replica table, populated by the pool initializer.  One
# entry per device in the hierarchy; each worker holds the full table so
# any worker can run any job (shard assignment is free to change without
# affecting results).
_REPLICAS: dict[int, LocalTrainer] | None = None
# Worker-side slab views (start, result), attached by the initializer on
# the shared-memory path; None on the pickled fallback.
_SLABS: tuple[ParameterSlab, ParameterSlab] | None = None


def _init_replicas(
    model_template: Sequential,
    specs: list[DeviceSpec],
    slab_spec: tuple[str, str, int, int] | None,
) -> None:
    """Pool initializer: build one LocalTrainer replica per device and
    attach the parameter slabs when the pool runs in shared-memory mode.

    The replica RNG seed is irrelevant — every job imports the parent's
    exported RNG state before training — it only fixes the generator
    type (PCG64, matching `utils/seeding.py`).
    """
    global _REPLICAS, _SLABS
    # Same one-level-fan-out pin as parallel_map's workers: nothing a
    # replica runs may consult REPRO_WORKERS and try to nest a pool.
    os.environ[ENV_VAR] = "1"
    _REPLICAS = {
        spec.device_id: LocalTrainer(
            device_id=spec.device_id,
            dataset=spec.dataset,
            model=model_template.clone(),
            config=spec.config,
            # Placeholder stream: import_state() overwrites it before
            # every job (waiver documented in DESIGN.md 'Static
            # analysis').
            rng=seeded_generator(0),  # abdlint: ignore[DET005]
        )
        for spec in specs
    }
    if slab_spec is None:
        _SLABS = None
    else:
        start_name, result_name, rows, dim = slab_spec
        _SLABS = (
            ParameterSlab.attach(start_name, rows, dim),
            ParameterSlab.attach(result_name, rows, dim),
        )


def _train_shard(
    payload: tuple[list[TrainJob], ambient.Snapshot | None],
) -> list[TrainResult]:
    """Run a shard of jobs on this worker's replicas (module-level for
    spawn-safety).  The parent's ambient state is re-applied, so guarded
    runs stay guarded inside workers and a trip reports the provenance
    (round) a serial run would.  Local SGD emits no trace or audit
    records, so nothing is shipped back for merging."""
    jobs, snap = payload
    assert _REPLICAS is not None, "pool initializer did not run"
    results: list[TrainResult] = []
    with ambient.applied(snap):
        for job in jobs:
            trainer = _REPLICAS[job.device_id]
            trainer.import_state_delta(job.state)
            if job.start_vector is not None:
                start: np.ndarray = job.start_vector
            else:
                assert _SLABS is not None, "shm job without attached slabs"
                starts, _ = _SLABS
                stamp = starts.generation
                if job.generation != stamp:
                    raise RuntimeError(
                        f"stale-generation job for device {job.device_id}: "
                        f"job generation {job.generation} != slab {stamp}"
                    )
                start = starts.array[job.row]
            vector = trainer.train_round(start, job.arrival)
            if job.start_vector is None:
                assert _SLABS is not None
                _SLABS[1].array[job.row] = vector
                out_vector = None
            else:
                out_vector = vector
            results.append(
                TrainResult(
                    device_id=job.device_id,
                    vector=out_vector,
                    losses=list(trainer.last_losses),
                    state=trainer.export_state_delta(),
                    row=job.row,
                    generation=job.generation,
                )
            )
    return results


class LocalTrainingPool:
    """A persistent spawn pool of per-device LocalTrainer replicas.

    Created lazily by the trainers when ``workers > 1``; must be
    re-created (``close()``) after membership churn changes the device
    set.  Use as a context manager or call :meth:`close` explicitly;
    trainers do both via their own ``close()``.

    Parameters
    ----------
    use_shm:
        ``None`` (default) tries the shared-memory transport and falls
        back to pickled vectors if segment creation fails; ``True``/
        ``False`` force one path.  Both paths are bit-identical.
    """

    #: Seconds a graceful close() waits for workers to drain before
    #: falling back to terminate().
    JOIN_TIMEOUT = 10.0

    def __init__(
        self,
        model_template: Sequential,
        specs: list[DeviceSpec],
        workers: int,
        use_shm: bool | None = None,
    ) -> None:
        if workers < 2:
            raise ValueError(f"LocalTrainingPool needs workers >= 2, got {workers}")
        if not specs:
            raise ValueError("LocalTrainingPool needs at least one device spec")
        self.workers = min(workers, len(specs))
        self.device_ids = [spec.device_id for spec in specs]
        self._row_of = {spec.device_id: i for i, spec in enumerate(specs)}
        self._dim = int(model_template.get_flat().size)
        self._generation = 0
        self._slabs: tuple[ParameterSlab, ParameterSlab] | None = None
        slab_spec: tuple[str, str, int, int] | None = None
        if use_shm or use_shm is None:
            try:
                rows = len(specs)
                starts = ParameterSlab.create(rows, self._dim)
                results = ParameterSlab.create(rows, self._dim)
            except OSError:
                if use_shm:
                    raise
            else:
                self._slabs = (starts, results)
                slab_spec = (starts.name, results.name, rows, self._dim)
        self._pool: pool.Pool | None = spawn_context().Pool(
            processes=self.workers,
            initializer=_init_replicas,
            initargs=(model_template, specs, slab_spec),
        )

    @property
    def uses_shm(self) -> bool:
        """Whether parameter traffic rides the shared-memory slabs."""
        return self._slabs is not None

    def train_round(self, jobs: list[TrainJob]) -> dict[int, TrainResult]:
        """Run every job, return results keyed by device id.

        Jobs are sharded round-robin over the workers in input order;
        since each job is a pure function of its payload the sharding is
        invisible in the results.  On the shared-memory path the start
        vectors are published to the slab under a fresh generation stamp
        before dispatch, and every returned vector is copied out of the
        result slab so callers own their bytes past the next round.
        """
        if self._pool is None:
            raise RuntimeError("LocalTrainingPool is closed")
        if self._slabs is not None:
            starts, _ = self._slabs
            self._generation += 1
            generation = self._generation
            starts.generation = generation
            self._slabs[1].generation = generation
            shipped = []
            for job in jobs:
                row = self._row_of[job.device_id]
                assert job.start_vector is not None
                starts.array[row] = job.start_vector
                shipped.append(
                    replace(
                        job, start_vector=None, row=row, generation=generation
                    )
                )
            jobs = shipped
        snap = ambient.snapshot()
        shards = [(jobs[i :: self.workers], snap) for i in range(self.workers)]
        shards = [s for s in shards if s[0]]
        merged: dict[int, TrainResult] = {}
        for shard_results in self._pool.map(_train_shard, shards):
            for result in shard_results:
                if result.vector is None:
                    assert self._slabs is not None
                    vector = self._slabs[1].array[result.row].copy()
                    result = replace(result, vector=vector)
                merged[result.device_id] = result
        return merged

    def close(self) -> None:
        """Drain the workers and release the slabs (idempotent).

        ``close()``/``join()`` first, bounded by :attr:`JOIN_TIMEOUT`:
        with shared-memory segments in play a blunt ``terminate()`` could
        kill a worker mid-write, so force-killing is strictly the hung-
        pool fallback.  The slabs are unlinked exactly once, after the
        workers are gone (POSIX keeps the memory alive for any straggler
        holding a mapping; the name disappears immediately).
        """
        worker_pool, self._pool = self._pool, None
        if worker_pool is not None:
            worker_pool.close()
            if sys.is_finalizing():
                # close() reached via __del__ at interpreter shutdown:
                # Python 3.11 deadlocks starting new threads while
                # finalizing, so the bounded-join watchdog below is
                # unavailable.  The drained daemonic workers are reaped
                # by terminate(), which only joins existing threads.
                worker_pool.terminate()
            else:
                waiter = threading.Thread(
                    target=worker_pool.join, daemon=True
                )
                waiter.start()
                waiter.join(self.JOIN_TIMEOUT)
                if waiter.is_alive():  # pragma: no cover - hung fallback
                    worker_pool.terminate()
                    waiter.join(self.JOIN_TIMEOUT)
        slabs, self._slabs = self._slabs, None
        if slabs is not None:
            for slab in slabs:
                slab.unlink()
                slab.close()

    def __enter__(self) -> "LocalTrainingPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: never raise at GC/shutdown
        try:
            self.close()
        except Exception:
            pass
