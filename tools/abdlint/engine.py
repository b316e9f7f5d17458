"""Discovery + orchestration: the two passes, the cache, the report.

``lint_paths`` is the whole engine: discover files, load or build each
file's :class:`ModuleSummary` (pass 1, cached), assemble the
:class:`Project`, run the cross-module rules (pass 2), merge and sort.
Pass-1 findings are computed with every rule enabled and stored inside
the summary; ``--select`` filters at report time, so the cache is valid
for any rule selection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from abdlint import arch, registry, seedflow
from abdlint.cache import CACHE_DIR_NAME, CacheStats, SummaryCache
from abdlint.findings import PROJECT_RULES, RULES, Finding
from abdlint.local import lint_source
from abdlint.project import ModuleSummary, Project, summarize_source

_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".pytest_cache",
    ".hypothesis",
    ".venv",
    CACHE_DIR_NAME,
}

_PROJECT_RUNNERS = (
    ("ARCH001", arch.run),
    ("DET005", seedflow.run),
    ("REG001", registry.run),
)


def _is_fixture(path: Path) -> bool:
    """The engine's own lint fixtures are deliberately-bad code."""
    return "abdlint/fixtures" in path.as_posix()


def discover(paths: Iterable[str]) -> list[str]:
    """All lintable ``*.py`` files under ``paths``."""
    out: set[str] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            if p.suffix == ".py" and not _is_fixture(p):
                out.add(p.as_posix())
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS
            )
            base = Path(dirpath)
            if _is_fixture(base):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.add((base / name).as_posix())
    return sorted(out)


def build_summary(path: str, source: str) -> ModuleSummary:
    """Pass 1 for one file: summary + embedded local findings."""
    summary = summarize_source(path, source)
    summary.local_findings = [
        [f.path, f.line, f.col, f.rule, f.message]
        for f in lint_source(source, path)
    ]
    return summary


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    cache: CacheStats = field(default_factory=CacheStats)


def _chosen(select: Iterable[str] | None) -> set[str]:
    if select is None:
        return set(RULES)
    chosen = set(select)
    unknown = chosen - set(RULES)
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    return chosen


def run_engine(
    paths: Iterable[str],
    select: Iterable[str] | None = None,
    use_cache: bool = True,
    cache_dir: str | None = None,
) -> LintResult:
    chosen = _chosen(select)
    files = discover(paths)
    cache = None
    if use_cache:
        cache = SummaryCache(cache_dir or CACHE_DIR_NAME)

    summaries: list[ModuleSummary] = []
    for path in files:
        summary: ModuleSummary | None = None
        if cache is not None:
            cached, source = cache.lookup(path)
            if cached is not None:
                summary = ModuleSummary.from_json(cached)
            else:
                assert source is not None
                summary = build_summary(path, source)
                cache.store(path, source, summary.to_json())
        else:
            source = Path(path).read_text(encoding="utf-8")
            summary = build_summary(path, source)
        summaries.append(summary)
    if cache is not None:
        cache.flush()

    result = LintResult(files=len(files))
    if cache is not None:
        result.cache = cache.stats

    for summary in summaries:
        for finding in summary.findings():
            # E999 (syntax error) is always reported.
            if finding.rule in chosen or finding.rule not in RULES:
                result.findings.append(finding)

    if chosen & PROJECT_RULES:
        project = Project(summaries)
        for rule_id, runner in _PROJECT_RUNNERS:
            if rule_id in chosen:
                result.findings.extend(runner(project))

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def lint_paths(
    paths: Iterable[str], select: Iterable[str] | None = None
) -> list[Finding]:
    """Back-compat wrapper: findings only, no cache side effects."""
    return run_engine(paths, select=select, use_cache=False).findings
