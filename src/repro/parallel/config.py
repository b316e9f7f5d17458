"""Worker-count resolution.

The parallel backend is *off* unless something asks for workers: the
resolution order is explicit argument > ``REPRO_WORKERS`` environment
variable > serial default (1).  ``workers=1`` is not "a pool of one" —
callers treat it as the literal serial code path (see
:func:`repro.parallel.pool.parallel_map`), which is what makes the
zero-overhead guarantee checkable.
"""

from __future__ import annotations

import os

__all__ = ["ENV_VAR", "env_workers", "resolve_workers"]

#: Environment variable consulted when no explicit worker count is given.
#: Accepts a positive integer or ``auto`` (one worker per CPU).
ENV_VAR = "REPRO_WORKERS"


def _parse_workers(raw: str, source: str) -> int:
    if raw.lower() == "auto":
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{source} must be a positive integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{source} must be >= 1, got {value}")
    return value


def env_workers() -> int | None:
    """The worker count carried by ``REPRO_WORKERS`` (``None`` if unset).

    Read at call time (not import time) so tests and subprocess drivers
    can flip it without re-importing the package.
    """
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return _parse_workers(raw, ENV_VAR)


def resolve_workers(workers: int | None = None) -> int:
    """Resolve an effective worker count.

    ``workers`` wins when given; otherwise ``REPRO_WORKERS`` is
    consulted; otherwise the serial default 1.  Raises ``ValueError``
    for non-positive counts from either source.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    from_env = env_workers()
    return 1 if from_env is None else from_env
