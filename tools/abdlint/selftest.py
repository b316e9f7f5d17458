"""Fixture-driven self-test: every rule fires, stays clean, suppresses.

Fixtures are real files under ``tools/abdlint/fixtures`` (excluded from
normal discovery):

``local/<RULE>/bad_N.py`` / ``good_N.py``
    pass-1 pairs — the bad file must fire ``<RULE>``, the good file must
    be entirely clean, and the bad file with ``# abdlint: ignore``
    appended to every line must be silent;
``carveouts/<RULE>__<slug>.py``
    a snippet whose first line is ``# lint-path: <path>`` — it must fire
    at a generic ``src/`` path and stay silent at the carved-out path;
``project/<RULE>/{bad,good,pragma}/``
    miniature source trees for the cross-module rules — ``bad`` must
    fire ``<RULE>``, ``good`` and ``pragma`` must not.
"""

from __future__ import annotations

from pathlib import Path

from abdlint import arch, registry, seedflow
from abdlint.engine import build_summary
from abdlint.local import lint_source
from abdlint.project import Project

FIXTURE_ROOT = Path(__file__).resolve().parent / "fixtures"

_PROJECT_RUNNERS = {
    "ARCH001": arch.run,
    "DET005": seedflow.run,
    "REG001": registry.run,
}


def load_local_fixtures() -> dict[str, list[tuple[str, str]]]:
    """rule -> [(bad source, good source), ...], read from disk."""
    fixtures: dict[str, list[tuple[str, str]]] = {}
    local_root = FIXTURE_ROOT / "local"
    if not local_root.is_dir():
        return fixtures
    for rule_dir in sorted(local_root.iterdir()):
        if not rule_dir.is_dir():
            continue
        pairs = []
        for bad_path in sorted(rule_dir.glob("bad_*.py")):
            good_path = rule_dir / bad_path.name.replace("bad_", "good_")
            pairs.append(
                (
                    bad_path.read_text(encoding="utf-8"),
                    good_path.read_text(encoding="utf-8"),
                )
            )
        if pairs:
            fixtures[rule_dir.name] = pairs
    return fixtures


def load_carveout_fixtures() -> list[tuple[str, str, str]]:
    """[(rule, carved path, source), ...] from ``carveouts/``."""
    out: list[tuple[str, str, str]] = []
    carveout_root = FIXTURE_ROOT / "carveouts"
    if not carveout_root.is_dir():
        return out
    for path in sorted(carveout_root.glob("*.py")):
        rule = path.name.split("__", 1)[0]
        source = path.read_text(encoding="utf-8")
        first, _, rest = source.partition("\n")
        if not first.startswith("# lint-path:"):
            raise ValueError(f"{path}: missing '# lint-path:' directive")
        out.append((rule, first.removeprefix("# lint-path:").strip(), rest))
    return out


def _project_findings(tree: Path, rule: str) -> list:
    summaries = [
        build_summary(p.as_posix(), p.read_text(encoding="utf-8"))
        for p in sorted(tree.rglob("*.py"))
    ]
    return _PROJECT_RUNNERS[rule](Project(summaries))


def self_test() -> list[str]:
    """Run every rule against its fixtures; returns failure messages."""
    failures: list[str] = []

    for rule, pairs in load_local_fixtures().items():
        for index, (bad, good) in enumerate(pairs):
            label = f"{rule}[{index}]" if len(pairs) > 1 else rule
            fired = {
                f.rule for f in lint_source(bad, path=f"src/fixture_{rule}.py")
            }
            if rule not in fired:
                failures.append(f"{label}: did not fire on its seeded violation")
            clean = lint_source(good, path=f"src/fixture_{rule}.py")
            if clean:
                failures.append(
                    f"{label}: clean fixture produced findings: "
                    + "; ".join(f.render() for f in clean)
                )
            pragma_lines = [
                line + "  # abdlint: ignore" if line.strip() else line
                for line in bad.splitlines()
            ]
            suppressed = lint_source(
                "\n".join(pragma_lines) + "\n", path=f"src/fixture_{rule}.py"
            )
            if suppressed:
                failures.append(f"{label}: pragma failed to suppress the finding")

    for rule, path, source in load_carveout_fixtures():
        generic = {
            f.rule for f in lint_source(source, path="src/fixture_carveout.py")
        }
        if rule not in generic:
            failures.append(
                f"{rule}: carve-out fixture does not fire at a generic path"
            )
        exempt = [f for f in lint_source(source, path=path) if f.rule == rule]
        if exempt:
            failures.append(
                f"{rule}: carve-out for {path} failed: "
                + "; ".join(f.render() for f in exempt)
            )

    project_root = FIXTURE_ROOT / "project"
    for rule, runner in sorted(_PROJECT_RUNNERS.items()):
        rule_dir = project_root / rule
        if not rule_dir.is_dir():
            failures.append(f"{rule}: no project fixture tree at {rule_dir}")
            continue
        bad = [f for f in _project_findings(rule_dir / "bad", rule) if f.rule == rule]
        if not bad:
            failures.append(f"{rule}: bad/ project fixture did not fire")
        good = [
            f for f in _project_findings(rule_dir / "good", rule) if f.rule == rule
        ]
        if good:
            failures.append(
                f"{rule}: good/ project fixture produced findings: "
                + "; ".join(f.render() for f in good)
            )
        waived = [
            f
            for f in _project_findings(rule_dir / "pragma", rule)
            if f.rule == rule
        ]
        if waived:
            failures.append(
                f"{rule}: pragma/ project fixture was not suppressed: "
                + "; ".join(f.render() for f in waived)
            )

    return failures
