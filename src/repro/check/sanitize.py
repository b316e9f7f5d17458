"""Runtime numeric sanitizers with provenance.

:func:`assert_finite` is the single guard the numeric pipeline calls at
its trust boundaries: aggregation inputs/outputs, consensus
proposals/decisions, NN forward/backward results and attack outputs.
When checks are disabled (the default) the guard returns after one
gate test — no array is touched, so the opt-out path adds no measurable
overhead.

When enabled, a non-finite or overflow-range value raises
:class:`SanitizerError` carrying provenance — *which* value (``what``),
which rule produced it, at which node and round — gathered from the
explicit keyword arguments merged with the ambient :func:`provenance`
context the trainer maintains.

The on/off gate and the :func:`provenance` frames belong to
:mod:`repro.obs.ambient` (``REPRO_SANITIZE=1`` process-wide, ``with
sanitize.sanitized():`` for a block — an autouse fixture does that for
the whole test suite).
"""

from __future__ import annotations

from typing import ContextManager

import numpy as np

from repro.obs import trace
from repro.obs.ambient import SANITIZE as _GATE, current_provenance, provenance

__all__ = [
    "SanitizerError",
    "OVERFLOW_LIMIT",
    "assert_finite",
    "enabled",
    "enable",
    "disable",
    "sanitized",
    "provenance",
    "current_provenance",
]

#: Magnitudes above this are treated as latent overflow even though they
#: are still finite: squaring them (every distance/Gram kernel does)
#: leaves float64 range.  sqrt(float64 max) ~ 1.34e154.
OVERFLOW_LIMIT: float = 1e150


class SanitizerError(FloatingPointError):
    """A guarded value was NaN/Inf or beyond the overflow limit.

    Attributes carry the provenance the guard could establish: ``what``
    names the guarded quantity, ``rule`` the aggregation/consensus/attack
    rule producing it, ``node_id`` and ``round_index`` the ambient
    trainer context (``None`` when unknown).
    """

    def __init__(
        self,
        message: str,
        what: str,
        rule: str | None = None,
        node_id: int | None = None,
        round_index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.what = what
        self.rule = rule
        self.node_id = node_id
        self.round_index = round_index

    def __reduce__(self) -> tuple[object, ...]:
        # The default reduction replays only ``args`` (the message), which
        # cannot rebuild the error: a trip inside a spawn worker would
        # kill the pool's result thread and hang the parent.
        fields = (str(self), self.what, self.rule, self.node_id, self.round_index)
        return type(self), fields


enabled = _GATE.enabled
enable = _GATE.enable
disable = _GATE.disable


def sanitized(on: bool = True) -> ContextManager[object]:
    """Scope with checks forced on (or off with ``on=False``)."""
    return _GATE.scoped(True if on else None)


def assert_finite(
    values: np.ndarray,
    what: str,
    *,
    rule: str | None = None,
    node_id: int | None = None,
    round_index: int | None = None,
    limit: float = OVERFLOW_LIMIT,
) -> None:
    """Raise :class:`SanitizerError` if ``values`` holds NaN/Inf/overflow.

    A no-op (the array is never inspected, or even coerced) while checks
    are disabled, so guard calls may stay unconditionally in hot paths.
    """
    if _GATE.value is None:
        return
    arr = np.asarray(values)
    if arr.dtype.kind not in "fc":
        return  # integer/bool payloads cannot hold NaN/Inf
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(arr)
        overflow = np.abs(arr) > limit
    n_nan = int(np.isnan(arr).sum())
    n_inf = int(bad.sum()) - n_nan
    n_over = int((overflow & ~bad).sum())
    if n_nan == 0 and n_inf == 0 and n_over == 0:
        return
    ambient = current_provenance()
    if rule is None:
        rule = ambient.get("rule")  # type: ignore[assignment]
    if node_id is None:
        node_id = ambient.get("node_id")  # type: ignore[assignment]
    if round_index is None:
        round_index = ambient.get("round_index")  # type: ignore[assignment]
    where = ", ".join(
        part
        for part in (
            f"rule={rule}" if rule is not None else "",
            f"node={node_id}" if node_id is not None else "",
            f"round={round_index}" if round_index is not None else "",
        )
        if part
    )
    counts = ", ".join(
        part
        for part in (
            f"{n_nan} NaN" if n_nan else "",
            f"{n_inf} Inf" if n_inf else "",
            f"{n_over} overflow-range (>|{limit:g}|)" if n_over else "",
        )
        if part
    )
    message = f"sanitizer: {what} contains {counts} of {arr.size} values"
    if where:
        message += f" [{where}]"
    tr = trace.tracer()
    if tr is not None:
        tr.metrics.counter("sanitize.trips").inc()
        tr.instant(
            "sanitize.trip",
            "fault",
            float(round_index) if isinstance(round_index, int) else 0.0,
            what=what,
            rule=rule,
            node=node_id,
            nan=n_nan,
            inf=n_inf,
            overflow=n_over,
        )
    raise SanitizerError(
        message,
        what=what,
        rule=rule,
        node_id=node_id,
        round_index=round_index,
    )
