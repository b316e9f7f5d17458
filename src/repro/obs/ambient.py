"""The ambient runtime: how an observer is gated, scoped and shipped.

The numeric guard (:mod:`repro.check.sanitize`), the sim-time tracer
(:mod:`repro.obs.trace`) and the defence auditor (:mod:`repro.obs.audit`)
are pure *observers* of a run: they must never perturb it, at any worker
count.  This module is the single owner of that policy; each of the
three binds one :class:`Slot` and re-exports its methods under its own
verbs (``trace.tracer()``, ``audit.audited()``, ``sanitize.sanitized()``).

**Gating.**  A slot holds one process-wide instance, ``None`` meaning
*off*.  Its default is read once, at import, from its environment
variable (``REPRO_SANITIZE`` / ``REPRO_TRACE`` / ``REPRO_AUDIT``): a
truthy word (``1`` / ``true`` / ``on`` / ``yes``) turns it on, anything
else leaves it off.  An instrumentation site calls :meth:`Slot.get` and
tests for ``None`` — the whole cost of a disabled observer, asserted by
``benchmarks/bench_aggregation_kernels.py --overhead``.

**Scoping.**  :meth:`Slot.enable` / :meth:`Slot.disable` flip a slot
process-wide; :meth:`Slot.scoped` and :meth:`Slot.fresh` install an
instance for a ``with`` block and restore the previous one on exit,
exception or not.  :func:`provenance` frames
(node / round / rule) are what every observer stamps its output with.

**Shipping.**  A spawn worker re-imports everything, so it starts from
the environment defaults, not the parent's state.  :func:`snapshot`
captures that state as plain picklable data, :func:`applied` re-creates
it around one task — every enabled sink as a *private* fresh instance —
and :func:`merge` replays what the task recorded into the parent's
sinks.  Callers merge in *input* order and run the same three calls
in-process when serial, which is what makes trace and audit streams
byte-identical for every worker count.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Generic, Iterator, Mapping, TypeVar

from repro.obs.jsonl import RecordSink

__all__ = [
    "Slot",
    "Snapshot",
    "SANITIZE",
    "provenance",
    "current_provenance",
    "recording",
    "snapshot",
    "applied",
    "merge",
]

_T = TypeVar("_T")

_TRUTHY = ("1", "true", "on", "yes")

#: Every slot by name.
_SLOTS: dict[str, "Slot[Any]"] = {}


class Slot(Generic[_T]):
    """One process-wide observer instance (``None`` while off);
    ``factory`` builds a fresh one."""

    def __init__(
        self, name: str, env_var: str, factory: Callable[[], _T]
    ) -> None:
        self.env_var = env_var
        self.factory = factory
        self.value: _T | None = factory() if self.env_on() else None
        _SLOTS[name] = self

    def env_on(self) -> bool:
        """Whether the variable asks for this observer."""
        return os.environ.get(self.env_var, "").strip().lower() in _TRUTHY

    def get(self) -> _T | None:
        """The installed instance, or ``None`` when off: THE gate every
        instrumentation site checks (the disabled path is this one read)."""
        return self.value

    def enabled(self) -> bool:
        """Whether the observer is currently on."""
        return self.value is not None

    def enable(self, instance: _T | None = None) -> _T:
        """Install ``instance`` (or a fresh one) process-wide."""
        self.value = instance if instance is not None else self.factory()
        return self.value

    def disable(self) -> None:
        """Turn the observer off process-wide."""
        self.value = None

    @contextmanager
    def scoped(self, instance: _T | None) -> Iterator[_T | None]:
        """Scope with ``instance`` installed (``None`` = off); the
        previous instance is restored on exit."""
        previous, self.value = self.value, instance
        try:
            yield instance
        finally:
            self.value = previous

    @contextmanager
    def fresh(self, path: "str | Path | None" = None) -> Iterator[_T]:
        """Scope with a *fresh* instance; a sink is saved to ``path``."""
        instance = self.factory()
        with self.scoped(instance):
            yield instance
        if path is not None:
            assert isinstance(instance, RecordSink)
            instance.save(path)


#: The numeric guard's on/off flag, bound by :mod:`repro.check.sanitize`.
#: It lives here, with the provenance frames, so this module knows every
#: slot without importing its clients.
SANITIZE: Slot[bool] = Slot("sanitize", "REPRO_SANITIZE", lambda: True)

# Ambient provenance (node/round/rule) maintained as a stack so nested
# scopes restore their parent on exit.
_provenance: list[dict[str, object]] = []


@contextmanager
def provenance(
    node_id: int | None = None,
    round_index: int | None = None,
    rule: str | None = None,
) -> Iterator[None]:
    """Attach ambient provenance to everything observed inside the scope.

    Inner scopes override only the fields they set; a guard's explicit
    keyword arguments win over the ambient context.
    """
    frame: dict[str, object] = {}
    if node_id is not None:
        frame["node_id"] = node_id
    if round_index is not None:
        frame["round_index"] = round_index
    if rule is not None:
        frame["rule"] = rule
    _provenance.append(frame)
    try:
        yield
    finally:
        _provenance.pop()


def current_provenance() -> dict[str, object]:
    """Merged view of the ambient provenance stack (inner wins)."""
    merged: dict[str, object] = {}
    for frame in _provenance:
        merged.update(frame)
    return merged


def recording() -> bool:
    """Whether any sink is on (so tasks need private instances)."""
    return any(isinstance(slot.value, RecordSink) for slot in _SLOTS.values())


#: What crosses the process boundary: the merged provenance frame and the
#: names of the slots that are on.
Snapshot = tuple[dict[str, object], frozenset[str]]


def snapshot() -> Snapshot:
    """The ambient state as plain picklable data."""
    on = frozenset(name for name, slot in _SLOTS.items() if slot.value is not None)
    return current_provenance(), on


@contextmanager
def applied(snap: Snapshot | None) -> Iterator[dict[str, list[Any]]]:
    """Scope one task with ``snap`` re-created around it.

    Every slot is forced to the shipped state — off, or a fresh private
    instance — whatever this process's own defaults are; a falsy
    ``snap`` is the all-off state.  Yields the private sinks' live row
    lists by slot name: what the task records, ready for :func:`merge`.
    """
    frame, on = snap or ({}, frozenset())
    captured: dict[str, list[Any]] = {}
    with ExitStack() as stack:
        stack.enter_context(provenance(**frame))  # type: ignore[arg-type]
        for name, slot in _SLOTS.items():
            instance = slot.factory() if name in on else None
            stack.enter_context(slot.scoped(instance))
            if isinstance(instance, RecordSink):
                captured[name] = instance.rows
        yield captured


def merge(captured: Mapping[str, list[Any]]) -> None:
    """Replay one task's captured rows into the installed sinks."""
    for name, rows in captured.items():
        sink = _SLOTS[name].value
        if rows and isinstance(sink, RecordSink):
            sink.rows.extend(rows)
