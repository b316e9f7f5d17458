"""In-memory span recorder for the ledger's traced pass.

A span is ``{name, start, end, parent, round, workload}`` (plus optional
``counts`` taken at the same boundary).  Spans live in one list and are
written out only when the pass ends; ``parent`` is the index of the span
that was open when this one began (``-1`` for a root), and all spans of
one training round share ``round``.

Layers are measured *from outside*: :meth:`Recorder.wrap` substitutes a
timing wrapper for a public function of the program and
:meth:`Recorder.restore` puts the originals back, so nothing under
``src/`` knows it is being timed.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Span", "Recorder", "read_jsonl", "self_times"]

# [name, start, end, parent, round, counts] — a list, not a dict or a
# dataclass, because fleet512 opens ~8k spans per round and the wrapper
# sits on the per-SGD-step path whose cost is being measured.
Span = list
NAME, START, END, PARENT, ROUND, COUNTS = range(6)

#: ``round`` of spans opened before the first training round.
SETUP_ROUND = -1


class Recorder:
    """A span stack plus the bookkeeping to undo its own patches."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.round = SETUP_ROUND
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> Span:
        stack = self._stack
        span: Span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Bracket an inline block (the set-up phases) as one span."""
        span = self._open(name)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Callable[[tuple, Any, Any], dict] | None = None,
        before: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per
        call.  ``counts(args, result, before(args))`` attaches the work
        done at this boundary to the span once the call has returned."""
        original = getattr(owner, attr)
        open_span, close, clock = self._open, self._stack.pop, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = open_span(name)
            seen = before(args) if before is not None else None
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                close()
            if counts is not None:
                span[COUNTS] = counts(args, result, seen)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as handle:
            for name, start, end, parent, round_index, counts in self.spans:
                row = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "round": round_index,
                    "workload": self.workload,
                }
                if counts:
                    row["counts"] = counts
                handle.write(json.dumps(row) + "\n")


def read_jsonl(path: Path) -> list[Span]:
    """Load what :meth:`Recorder.write_jsonl` wrote."""
    spans: list[Span] = []
    with path.open() as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(
                [
                    row["name"],
                    row["start"],
                    row["end"],
                    row["parent"],
                    row["round"],
                    row.get("counts"),
                ]
            )
    return spans


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    Spans come off one stack, so the children of a span never overlap
    each other and the covered part is the sum of their durations.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out
