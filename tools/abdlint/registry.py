"""REG001 — registry-sync checks.

The repo's extension points are registries, and every registry has a
counterpart that must not drift:

* every name passed to ``@register_aggregator`` needs a
  ``@register_reference`` oracle (and vice versa), because the
  differential suite proves fast == reference per name;
* every aggregator name must be exercised by a differential test —
  satisfied wholesale by a test that enumerates
  ``available_aggregators()`` dynamically, or name-by-name otherwise;
* every key in the consensus ``_FACTORIES`` table must be exercised by
  the property suite (by key, by class name, or wholesale through
  ``CONSENSUS_NAMES``).

Test-dependent checks only fire when the linted path set actually
contains test files, so ``abdlint src/`` alone stays quiet about
coverage it cannot see.
"""

from __future__ import annotations

from abdlint.findings import Finding, is_suppressed
from abdlint.project import ModuleSummary, Project


def _reg(summary: ModuleSummary, key: str) -> list:
    return summary.registrations.get(key, [])


def run(project: Project) -> list[Finding]:
    findings: list[Finding] = []

    aggregators: dict[str, tuple[ModuleSummary, int]] = {}
    references: dict[str, tuple[ModuleSummary, int]] = {}
    factories: list[tuple[ModuleSummary, str, str, int]] = []
    have_tests = False
    dynamic_coverage = False
    uses_consensus_names = False
    referenced: set[str] = set()

    for summary in project.summaries:
        for name, line in _reg(summary, "aggregators"):
            aggregators.setdefault(name, (summary, line))
        for name, line in _reg(summary, "references"):
            references.setdefault(name, (summary, line))
        for key, cls_name, line in _reg(summary, "consensus_factories"):
            factories.append((summary, key, cls_name, line))
        if summary.kind.is_tests:
            have_tests = True
            if summary.registrations.get("dynamic_aggregator_coverage"):
                dynamic_coverage = True
            if summary.registrations.get("uses_consensus_names"):
                uses_consensus_names = True
            referenced.update(summary.registrations.get("referenced", []))

    def emit(summary: ModuleSummary, line: int, message: str) -> None:
        if is_suppressed(summary.pragmas, line, "REG001"):
            return
        findings.append(
            Finding(
                path=summary.path, line=line, col=0, rule="REG001", message=message
            )
        )

    # -- aggregation: fast <-> reference oracle sync -------------------
    for name, (summary, line) in sorted(aggregators.items()):
        if name not in references:
            emit(
                summary,
                line,
                f"aggregator {name!r} has no @register_reference oracle; "
                "the differential suite cannot prove it correct",
            )
    for name, (summary, line) in sorted(references.items()):
        if name not in aggregators:
            emit(
                summary,
                line,
                f"reference oracle {name!r} has no @register_aggregator "
                "fast implementation; dead oracle or missing registration",
            )

    # -- aggregation: differential-test coverage -----------------------
    if have_tests and not dynamic_coverage:
        for name, (summary, line) in sorted(aggregators.items()):
            if name not in referenced:
                emit(
                    summary,
                    line,
                    f"aggregator {name!r} is not exercised by any "
                    "differential test (no test enumerates "
                    "available_aggregators() and none names it)",
                )

    # -- consensus: property-suite coverage ----------------------------
    if have_tests and not uses_consensus_names:
        for summary, key, cls_name, line in factories:
            if key in referenced or (cls_name and cls_name in referenced):
                continue
            emit(
                summary,
                line,
                f"consensus backend {key!r} ({cls_name or 'unknown class'}) "
                "is not exercised by the property suite; add a property "
                "test or iterate CONSENSUS_NAMES",
            )

    return findings
