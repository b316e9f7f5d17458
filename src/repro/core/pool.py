"""Round-level local training: one entry point, two executors.

:class:`LocalFleet` owns *how one round of local SGD for a set of devices
is executed*.  Both trainers hand it the round's ordered
``(device, start_vector, arrival)`` list; it trains each device either
in-process (``workers == 1``: one ``LocalTrainer.train_round`` call per
device, nothing else) or through a :class:`LocalTrainingPool` of
persistent spawn workers, and either way leaves the parent-side trainers
— RNG streams, optimiser slots, model weights, ``last_losses`` — in the
same state, bit for bit.

The pool has one transport.  Datasets and the model architecture ship
*once* (in the pool initializer); every round the parent publishes each
live device's start vector into, and reads its trained vector out of, a
pair of shared-memory parameter slabs
(:class:`repro.parallel.shm.ParameterSlab`) — device-ordered ``(n, d)``
float64 segments stamped with the round generation — so neither vector
is ever pickled.  The :class:`TrainJob` that crosses the pipe carries
only the device id, its slab row, the generation, the optional
global-arrival merge and the round-trip state tuple
(:meth:`repro.core.local.LocalTrainer.export_state`: RNG stream position
+ optimiser slots).  Workers refuse jobs whose generation does not match
the slab stamp, so a stale vector fails loudly.  Where the platform
cannot create the slabs the fleet warns once and trains in-process;
there is no second transport.

Because the replica starts from the shipped state and ``train_round``
overwrites every model parameter from the start vector, the device's SGD
trajectory is a pure function of the job — which worker runs it, and in
which order, cannot matter.  That is the whole bit-identity argument.

Shutdown is graceful: :meth:`LocalTrainingPool.close` drains the workers
with ``close()``/``join()`` under a bounded timeout (terminating only a
hung pool) and then unlinks each slab exactly once — a worker is never
killed mid-write with the segment left in ``/dev/shm``.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from dataclasses import dataclass
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

__all__ = [
    "DeviceSpec",
    "TrainJob",
    "SharedMemoryUnavailable",
    "LocalTrainingPool",
    "LocalFleet",
]

#: The per-device round-trip state (:meth:`LocalTrainer.export_state`).
State = tuple[object, ...]


class SharedMemoryUnavailable(OSError):
    """The platform could not create the pool's parameter slabs."""


@dataclass(frozen=True)
class DeviceSpec:
    """Per-device immutables shipped once at pool creation."""

    device_id: int
    dataset: Dataset
    config: TrainingConfig


@dataclass(frozen=True)
class TrainJob:
    """One device's work for one round, as it crosses the pipe.

    The worker checks ``generation`` against the slab stamp, reads its
    start vector from row ``row`` of the start slab and writes the
    trained vector to the same row of the result slab.
    """

    device_id: int
    row: int
    generation: int
    arrival: GlobalArrival | None
    state: State


# Worker-process replica table, populated by the pool initializer.  One
# entry per device in the hierarchy; each worker holds the full table so
# any worker can run any job (shard assignment is free to change without
# affecting results).
_REPLICAS: dict[int, LocalTrainer] | None = None
# Worker-side views of the (start, result) slabs, attached by the
# initializer.
_SLABS: tuple[ParameterSlab, ParameterSlab] | None = None


def _init_replicas(
    model_template: Sequential,
    specs: list[DeviceSpec],
    slab_names: tuple[str, str],
) -> None:
    """Pool initializer: build one LocalTrainer replica per device and
    attach the parameter slabs.

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
    rows, dim = len(specs), int(model_template.get_flat().size)
    start_name, result_name = slab_names
    _SLABS = (
        ParameterSlab.attach(start_name, rows, dim),
        ParameterSlab.attach(result_name, rows, dim),
    )


def _train_shard(
    payload: tuple[list[TrainJob], ambient.Snapshot | None],
) -> list[tuple[list[float], State]]:
    """Run a shard of jobs on this worker's replicas; return each job's
    ``(losses, advanced state)`` in job order (module-level for
    spawn-safety).  The parent's ambient state is re-applied, so guarded
    runs stay guarded inside workers and a trip reports the provenance
    (round) a serial run would.  Local SGD emits no trace or audit
    records, so nothing is shipped back for merging."""
    jobs, snap = payload
    assert _REPLICAS is not None and _SLABS is not None, (
        "pool initializer did not run"
    )
    starts, trained = _SLABS
    results: list[tuple[list[float], State]] = []
    with ambient.applied(snap):
        for job in jobs:
            stamp = starts.generation
            if job.generation != stamp:
                raise RuntimeError(
                    f"stale-generation job for device {job.device_id}: "
                    f"job generation {job.generation} != slab {stamp}"
                )
            trainer = _REPLICAS[job.device_id]
            trainer.import_state(job.state)
            trained.array[job.row] = trainer.train_round(
                starts.array[job.row], job.arrival
            )
            results.append((trainer.last_losses, trainer.export_state()))
    return results


class LocalTrainingPool:
    """A persistent spawn pool of per-device LocalTrainer replicas over a
    pair of shared-memory parameter slabs.

    Built for one device set; :class:`LocalFleet` creates it lazily and
    closes it when membership churn changes that set.  Raises
    :class:`SharedMemoryUnavailable` when the slabs cannot be created.
    """

    #: Seconds a graceful close() waits for workers to drain before
    #: falling back to terminate().
    JOIN_TIMEOUT = 10.0

    def __init__(
        self,
        model_template: Sequential,
        specs: list[DeviceSpec],
        workers: int,
    ) -> None:
        if workers < 2:
            raise ValueError(f"LocalTrainingPool needs workers >= 2, got {workers}")
        if not specs:
            raise ValueError("LocalTrainingPool needs at least one device spec")
        self.workers = min(workers, len(specs))
        self._row_of = {spec.device_id: i for i, spec in enumerate(specs)}
        self._generation = 0
        # Handles first: close() must be able to release whatever exists
        # if anything below raises.
        self._pool: pool.Pool | None = None
        self._slabs: list[ParameterSlab] = []
        rows, dim = len(specs), int(model_template.get_flat().size)
        try:
            try:
                for _ in ("start", "result"):
                    self._slabs.append(ParameterSlab.create(rows, dim))
            except OSError as exc:
                raise SharedMemoryUnavailable(*exc.args) from exc
            self._pool = spawn_context().Pool(
                processes=self.workers,
                initializer=_init_replicas,
                initargs=(
                    model_template,
                    specs,
                    tuple(slab.name for slab in self._slabs),
                ),
            )
        except BaseException:
            self.close()
            raise

    @property
    def uses_shm(self) -> bool:
        """True while the slabs exist (read by the perf ledger)."""
        return bool(self._slabs)

    def train_round(
        self, jobs: list[tuple[int, np.ndarray, GlobalArrival | None, State]]
    ) -> list[tuple[np.ndarray, list[float], State]]:
        """Train every ``(device, start_vector, arrival, state)`` job and
        return its ``(vector, losses, state)``, in input order.

        The start vectors are published to the start slab under a fresh
        generation stamp, the jobs sharded round-robin over the workers
        in input order (each job is a pure function of its payload, so
        the sharding is invisible in the results), and every trained
        vector is copied out of the result slab so callers own their
        bytes past the next round.
        """
        if self._pool is None:
            raise RuntimeError("LocalTrainingPool is closed")
        starts, trained = self._slabs
        self._generation += 1
        starts.generation = trained.generation = self._generation
        shipped: list[TrainJob] = []
        for device, start, arrival, state in jobs:
            row = self._row_of[device]
            starts.array[row] = start
            shipped.append(TrainJob(device, row, self._generation, arrival, state))
        snap = ambient.snapshot()
        shards = [(shipped[i :: self.workers], snap) for i in range(self.workers)]
        outcomes = self._pool.map(_train_shard, [s for s in shards if s[0]])
        return [
            (
                trained.array[job.row].copy(),
                *outcomes[i % self.workers][i // self.workers],
            )
            for i, job in enumerate(shipped)
        ]

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
        slabs, self._slabs = self._slabs, []
        for slab in slabs:
            slab.unlink()
            slab.close()

    def __del__(self) -> None:  # best-effort: never raise at GC/shutdown
        try:
            self.close()
        except Exception:
            pass


class LocalFleet:
    """Executes one round of local SGD (Algorithm 2) for a set of devices.

    Parameters
    ----------
    trainers:
        The owner's live device → :class:`LocalTrainer` mapping; it stays
        the single source of truth whichever executor runs the round.
    model_template:
        Architecture shipped to the pool workers.
    workers:
        Resolved process count; ``1`` trains in-process.  Any count is
        bit-identical, so it is purely a wall-clock knob.
    """

    def __init__(
        self,
        trainers: dict[int, LocalTrainer],
        model_template: Sequential,
        workers: int,
    ) -> None:
        self.trainers = trainers
        self.workers = workers
        self._template = model_template
        self._pool: LocalTrainingPool | None = None

    def train(
        self, work: list[tuple[int, np.ndarray, GlobalArrival | None]]
    ) -> tuple[dict[int, np.ndarray], list[float]]:
        """Train every ``(device, start_vector, arrival)`` entry; return
        the trained vectors keyed by device and the concatenated
        per-iteration losses, both in input order."""
        if self.workers > 1 and self._pool is None:
            self._open_pool()
        vectors: dict[int, np.ndarray] = {}
        losses: list[float] = []
        if self._pool is None:
            for device, start, arrival in work:
                trainer = self.trainers[device]
                vectors[device] = trainer.train_round(start, arrival)
                losses.extend(trainer.last_losses)
            return vectors, losses
        results = self._pool.train_round(
            [
                (device, start, arrival, self.trainers[device].export_state())
                for device, start, arrival in work
            ]
        )
        # Import back in input order, so the parent trainers end the
        # round exactly as an in-process run leaves them.
        for (device, _, _), (vector, device_losses, state) in zip(work, results):
            trainer = self.trainers[device]
            trainer.import_state(state)
            trainer.model.set_flat(vector)
            trainer.last_losses = device_losses
            vectors[device] = vector
            losses.extend(device_losses)
        return vectors, losses

    def _open_pool(self) -> None:
        """Spawn the pool for the current membership, or settle for
        in-process training where shared memory is unavailable."""
        specs = [
            DeviceSpec(device, trainer.dataset, trainer.config)
            for device, trainer in sorted(self.trainers.items())
        ]
        try:
            self._pool = LocalTrainingPool(self._template, specs, self.workers)
        except SharedMemoryUnavailable as exc:
            warnings.warn(
                f"shared memory unavailable ({exc}); local training runs "
                "in-process (bit-identical, only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
            self.workers = 1

    def close(self) -> None:
        """Shut the pool down, if one was created.  Safe at any time; the
        next pooled round recreates it from the current membership."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
