"""Deterministic ordered fan-out over independent work items.

:func:`parallel_map` is the sweep-level surface: experiment drivers hand
it a list of independent cells (defence-matrix cells, Table-V cells) and
a module-level task function; it returns exactly what the serial loop
``[fn(x) for x in items]`` would, for any worker count.

Determinism comes from two rules:

* **ordered reduction** — results are collected with ``Pool.imap``, which
  yields them in *input* order no matter which worker finished first;
* **per-task observer scoping** — every task, serial or remote, runs
  under :func:`repro.obs.ambient.applied`: the parent's sanitize flag and
  provenance re-created around it, each enabled record sink replaced by
  a private instance whose rows are merged back in input order.  The
  merged trace and audit streams are therefore byte-identical for every
  worker count, including 1.

With tracing and auditing off and ``workers=1`` the call is a plain list
comprehension: no pool, no pickling, no wrapper frame — the zero-overhead
contract checked by ``bench_aggregation_kernels.py --overhead parallel``.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import ExitStack
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterable, TypeVar

from repro.obs import ambient
from repro.parallel.config import ENV_VAR, resolve_workers

__all__ = ["parallel_map", "spawn_context"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def spawn_context() -> BaseContext:
    """The ``spawn`` multiprocessing context used for every pool.

    Fork is deliberately avoided: forked children inherit ambient tracer
    and sanitizer state (and, on some platforms, locked BLAS internals),
    while spawn re-imports modules from scratch so workers see exactly
    the state the parent ships them.
    """
    return multiprocessing.get_context("spawn")


def _init_worker() -> None:
    """Pin every pool worker to serial execution.

    Fan-out is one level deep by design: a sweep task may construct
    trainers whose worker count defers to ``REPRO_WORKERS``, and a
    (daemonic) pool worker cannot have children — so the environment
    gate is forced to 1 for everything the worker runs.
    """
    os.environ[ENV_VAR] = "1"


def _run_task(
    payload: tuple[Callable[[_T], _R], _T, ambient.Snapshot],
) -> tuple[_R, dict[str, list[Any]]]:
    """Execute one task under the parent's ambient state.

    Module-level by spawn-safety rule 1 (DESIGN.md): spawn workers import
    this function by qualified name, so it must never live in
    ``__main__``.  Returns the result and the rows the task recorded.
    """
    fn, item, snap = payload
    with ambient.applied(snap) as captured:
        result = fn(item)
    return result, captured


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int | None = None,
) -> list[_R]:
    """Map ``fn`` over ``items`` with deterministic ordered reduction.

    ``workers`` resolves via :func:`~repro.parallel.config.resolve_workers`
    (explicit > ``REPRO_WORKERS`` > 1).  The result list equals
    ``[fn(x) for x in items]`` bit-for-bit regardless of worker count;
    ``fn`` and every item must be picklable (and ``fn`` module-level)
    when more than one worker is requested.

    Tasks must be independent: ``fn`` must not rely on process-global
    state mutated by earlier items, because with N > 1 each task may run
    in a different process.  All repro sweep cells qualify — they derive
    their randomness from per-cell seeds (`utils/seeding.py`), never from
    shared streams.
    """
    work = list(items)
    n_workers = min(resolve_workers(workers), max(1, len(work)))
    if n_workers <= 1 and not ambient.recording():
        return [fn(item) for item in work]

    # One loop, two executors: in-process when serial (scoped exactly
    # like a worker would, so the merged streams are invariant to the
    # worker count), a spawn pool otherwise.  Both yield lazily in input
    # order, so when a task raises the sinks already hold the rows of
    # every task before it — the evidence a failed run leaves behind.
    snap = ambient.snapshot()
    payloads = [(fn, item, snap) for item in work]
    results: list[_R] = []
    with ExitStack() as stack:
        outcomes: Iterable[tuple[_R, dict[str, list[Any]]]]
        if n_workers <= 1:
            outcomes = map(_run_task, payloads)
        else:
            pool = stack.enter_context(
                spawn_context().Pool(processes=n_workers, initializer=_init_worker)
            )
            outcomes = pool.imap(_run_task, payloads, chunksize=1)
        for result, captured in outcomes:  # input order == reduction order
            results.append(result)
            ambient.merge(captured)
    return results
