"""Runtime correctness tooling: sanitizers and protocol invariants.

``repro.check`` is the runtime half of the repo's correctness tooling
(the static half is ``tools/abdlint.py``).  It bundles:

* :mod:`repro.check.sanitize` — an opt-in NaN/Inf/overflow guard with
  provenance (node id, round, rule name) wrapped around aggregation
  inputs/outputs, NN forward/backward and attack outputs;
* :mod:`repro.check.invariants` — the shared quorum-arithmetic helpers
  (``max_faulty``, ``quorum_size``, ``require_fault_bound``) every
  protocol must use instead of hand-rolling ``2f+1`` / ``n//3``, plus
  the consensus-result structural checker that runs at every
  ``agree()`` call while checks are enabled.

Checks are off by default and always on during the test suite; how they
are switched on and scoped is :mod:`repro.obs.ambient`'s policy.
"""

from repro.check.invariants import (
    InvariantViolation,
    check_consensus_result,
    fault_bound_holds,
    max_faulty,
    quorum_size,
    require_fault_bound,
)
from repro.check.sanitize import (
    SanitizerError,
    assert_finite,
    disable,
    enable,
    enabled,
    provenance,
    sanitized,
)

__all__ = [
    "InvariantViolation",
    "check_consensus_result",
    "fault_bound_holds",
    "max_faulty",
    "quorum_size",
    "require_fault_bound",
    "SanitizerError",
    "assert_finite",
    "disable",
    "enable",
    "enabled",
    "provenance",
    "sanitized",
]
