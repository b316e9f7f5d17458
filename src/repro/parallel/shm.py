"""Shared-memory parameter slabs for round-level fan-out.

:class:`repro.core.pool.LocalTrainingPool` moves every device's start
vector to its workers, and every trained vector back, through a
:class:`ParameterSlab`: one POSIX shared-memory segment per direction,
viewed as a device-ordered ``(rows, dim)`` float64 ndarray, so the
parameter set never crosses the pipe:

* **Deterministic layout.**  Row ``i`` belongs to the ``i``-th device of
  the pool's (sorted) spec list, fixed for the life of the pool.  The
  layout is part of the bit-identity argument: which worker writes a row
  cannot matter because *where* each vector lives is a pure function of
  the device id.
* **Generation stamping.**  The first 8 bytes of the segment hold an
  ``int64`` round generation.  The parent bumps it before publishing a
  round's vectors; every job carries the generation it was built for,
  and workers refuse to read a slab whose stamp disagrees — a stale
  vector (pool reused across a missed round, a late worker from a
  previous epoch) fails loudly instead of silently training on old
  bytes.
* **Explicit lifecycle.**  The parent (the only creator) unlinks each
  segment exactly once, from ``LocalTrainingPool.close()``.  Workers
  attach read/write views but never unlink; the shared
  ``resource_tracker`` sees one registered name retired by that single
  unlink, so worker exit neither removes a live segment nor warns
  about a leak.

Only this module and :mod:`repro.core.pool` may touch
``multiprocessing.shared_memory`` (lint rule ``PAR001``), mirroring how
``DET004`` confines ``multiprocessing`` itself to :mod:`repro.parallel`.
"""

from __future__ import annotations

import numpy as np
from multiprocessing import shared_memory

__all__ = ["ParameterSlab", "SLAB_HEADER_BYTES"]

#: Bytes reserved ahead of the payload for the int64 generation stamp.
SLAB_HEADER_BYTES = 8


class ParameterSlab:
    """A ``(rows, dim)`` float64 ndarray in shared memory, with a
    generation header.

    Create with :meth:`create` (parent side; owns the segment and must
    eventually :meth:`unlink`) or :meth:`attach` (worker side; never
    unlinks).  :meth:`close` drops the ndarray views before closing the
    mapping, so no ``BufferError`` can escape, and both ``close`` and
    ``unlink`` are idempotent.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        rows: int,
        dim: int,
        owner: bool,
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self.rows = rows
        self.dim = dim
        self._owner = owner
        self._unlinked = False
        self._header: np.ndarray | None = np.ndarray(
            (1,), dtype=np.int64, buffer=shm.buf
        )
        self._array: np.ndarray | None = np.ndarray(
            (rows, dim),
            dtype=np.float64,
            buffer=shm.buf,
            offset=SLAB_HEADER_BYTES,
        )

    # ------------------------------------------------------------------
    # construction
    @classmethod
    def create(cls, rows: int, dim: int) -> "ParameterSlab":
        """Allocate a fresh segment sized for ``rows`` x ``dim`` floats."""
        if rows <= 0 or dim <= 0:
            raise ValueError(f"slab needs positive shape, got ({rows}, {dim})")
        size = SLAB_HEADER_BYTES + rows * dim * 8
        shm = shared_memory.SharedMemory(create=True, size=size)
        slab = cls(shm, rows, dim, owner=True)
        header = slab._header
        assert header is not None
        header[0] = 0
        return slab

    @classmethod
    def attach(cls, name: str, rows: int, dim: int) -> "ParameterSlab":
        """Map an existing segment by name (worker side).

        Spawned workers inherit the parent's ``resource_tracker``
        process, whose cache is a name *set*: the attach-side
        registration is a duplicate no-op and the owner's single
        ``unlink`` retires the name for everyone — so no per-worker
        unregister is needed (and issuing one would strand the parent's
        later unregister with a tracker ``KeyError``).
        """
        return cls(
            shared_memory.SharedMemory(name=name), rows, dim, owner=False
        )

    # ------------------------------------------------------------------
    # access
    @property
    def name(self) -> str:
        """Segment name, as handed to :meth:`attach` in workers."""
        shm = self._shm
        if shm is None:
            raise RuntimeError("slab is closed")
        return shm.name

    @property
    def array(self) -> np.ndarray:
        """The ``(rows, dim)`` float64 view (no copy)."""
        if self._array is None:
            raise RuntimeError("slab is closed")
        return self._array

    @property
    def generation(self) -> int:
        """Current round-generation stamp."""
        if self._header is None:
            raise RuntimeError("slab is closed")
        return int(self._header[0])

    @generation.setter
    def generation(self, value: int) -> None:
        if self._header is None:
            raise RuntimeError("slab is closed")
        self._header[0] = value

    # ------------------------------------------------------------------
    # lifecycle
    def close(self) -> None:
        """Drop the views and unmap the segment (idempotent).

        The ndarray views are released *before* the mapping closes —
        closing a mapping with live exports raises ``BufferError``, which
        is exactly the crash the old ``Pool.terminate()`` shutdown could
        trigger mid-write.
        """
        self._array = None
        self._header = None
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system — owner side, exactly once.

        POSIX semantics: the name disappears immediately, the memory
        lives until the last attached process closes its mapping — so
        the owner unlinks *before* closing (still-attached workers are
        unaffected), and an attacher never unlinks at all.  Idempotent;
        ``unlink`` after ``close`` is a programming error and raises.
        """
        if not self._owner or self._unlinked:
            return
        shm = self._shm
        if shm is None:
            raise RuntimeError("slab closed before unlink; unlink first")
        self._unlinked = True
        # SharedMemory.unlink also unregisters from the resource tracker,
        # so process exit cannot attempt (and warn about) a second unlink.
        shm.unlink()

    def __enter__(self) -> "ParameterSlab":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()
        self.close()
