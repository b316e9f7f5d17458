"""Command-line interface: ``python -m repro <command>``.

``scenario``  — run / list / validate declarative scenario specs; every
paper artefact is a shipped spec (``scenario run table5 | figure3 |
schemes | backdoor | tolerance | pipeline | defence_matrix ...``) — to
vary a parameter, copy the shipped TOML and edit it
``report``    — render a trace file into the Table-V-style breakdown
``audit``     — forensic detection report / cross-run diff from audit
records
``lint``      — run the abdlint static-analysis engine over the tree

``--trace PATH`` records a :mod:`repro.obs` trace of the command to
``PATH`` (equivalent to running under ``REPRO_TRACE=PATH``); the trace
can then be inspected with ``python -m repro report PATH``.
``--audit PATH`` records :mod:`repro.obs.audit` defence decision
records to ``PATH`` (equivalent to ``REPRO_AUDIT=PATH``) and writes the
run manifest next to them; inspect with ``python -m repro audit PATH``.
``scenario run --out DIR`` gathers report, cells, manifest and whichever
of the two streams is on into one run directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ABD-HFL reproduction experiment runner",
    )
    parser.add_argument("--out", type=Path, default=None, help="results directory")
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record an observability trace (JSONL) of the command to PATH",
    )
    parser.add_argument(
        "--audit",
        type=Path,
        default=None,
        metavar="PATH",
        help="record defence forensics (audit JSONL + run manifest) of "
        "the command to PATH",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes a scenario run shards its cells across;"
        " results are bit-identical for every N (default: REPRO_WORKERS or 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sn = sub.add_parser(
        "scenario", help="declarative scenario specs (repro.scenario)"
    )
    sn_sub = sn.add_subparsers(dest="scenario_command", required=True)
    sn_run = sn_sub.add_parser(
        "run", help="execute a spec (TOML path or shipped name)"
    )
    sn_run.add_argument(
        "spec",
        help="path to a scenario TOML, or a shipped name (see 'scenario list')",
    )
    # SUPPRESS so this alias never clobbers the root-level --workers value
    sn_run.add_argument(
        "--workers",
        type=int,
        dest="workers",
        default=argparse.SUPPRESS,
        metavar="N",
        help="worker processes (bit-identical results for every N)",
    )
    # SUPPRESS mirrors --workers: the subcommand alias must not clobber
    # a root-level --out when only the latter is given.
    sn_run.add_argument(
        "--out",
        type=Path,
        dest="out",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="persist report/cells/manifest (+ the audit / trace streams "
        "when they are on) under DIR",
    )
    sn_sub.add_parser("list", help="list the shipped canonical specs")
    sn_validate = sn_sub.add_parser(
        "validate", help="validate specs without running them"
    )
    sn_validate.add_argument(
        "specs",
        nargs="*",
        help="spec paths or shipped names (default: every shipped spec)",
    )

    ln = sub.add_parser(
        "lint",
        help="run the abdlint static-analysis engine (tools/abdlint)",
    )
    ln.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src tests benchmarks tools)",
    )
    ln.add_argument(
        "--select", default=None, help="comma-separated rule subset"
    )
    ln.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write findings as SARIF 2.1.0 to PATH",
    )
    ln.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the .abdlint_cache incremental cache",
    )
    ln.add_argument(
        "--self-test",
        action="store_true",
        help="run the engine's fixture self-test instead of linting",
    )

    rp = sub.add_parser("report", help="render a run report from a trace file")
    rp.add_argument("trace_file", type=Path, help="JSONL trace to render")
    rp.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="PATH",
        help="additionally export the trace in Chrome trace_event format",
    )
    rp.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first unrecognised trace line instead of "
        "skipping (and counting) it",
    )

    au = sub.add_parser(
        "audit", help="forensic detection report from audit records"
    )
    au.add_argument(
        "run",
        type=Path,
        nargs="?",
        default=None,
        help="audit JSONL file, or a run directory containing audit.jsonl",
    )
    au.add_argument(
        "--diff",
        type=Path,
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two runs instead: per-cell detection/metric deltas",
    )
    au.add_argument(
        "--check",
        action="store_true",
        help="with --diff: exit 1 when any delta exceeds --tol or the "
        "cell sets differ",
    )
    au.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="absolute delta tolerance for --check (default: 1e-9)",
    )
    au.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first invalid record line instead of skipping it",
    )
    au.add_argument(
        "--no-timelines",
        action="store_true",
        help="omit the per-device suspicion timelines",
    )
    return parser


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import (
        ScenarioRunner,
        expand_cells,
        load_shipped_spec,
        persist_result,
        resolve_spec,
        run_manifest,
        shipped_spec_names,
    )

    if args.scenario_command == "list":
        for name in shipped_spec_names():
            spec = load_shipped_spec(name)
            summary = spec.description or spec.kind
            print(f"{name:24s} {spec.kind:18s} {summary}")
        return 0
    if args.scenario_command == "validate":
        refs = args.specs or shipped_spec_names()
        failures = 0
        for ref in refs:
            try:
                spec = resolve_spec(ref)
            except ValueError as exc:
                print(f"{ref}: INVALID - {exc}")
                failures += 1
            else:
                print(f"{ref}: ok ({spec.kind}, {len(expand_cells(spec))} cells)")
        return 1 if failures else 0
    try:
        spec = resolve_spec(args.spec)
    except ValueError as exc:
        print(f"repro scenario: {exc}", file=sys.stderr)
        return 2
    result = ScenarioRunner(workers=args.workers).run(spec)
    print(result.table)
    if args.out:
        paths = persist_result(
            result,
            args.out,
            manifest=run_manifest(spec, command=f"scenario run {args.spec}"),
        )
        for path in paths.values():
            print(f"saved {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # The engine lives in tools/abdlint (it lints the repo, it is not
    # part of the library); locate it from the source checkout layout.
    root = Path(__file__).resolve().parents[2]
    tools_dir = root / "tools"
    if not (tools_dir / "abdlint" / "__init__.py").is_file():
        print(
            "repro lint: tools/abdlint not found (requires a source "
            f"checkout; looked in {tools_dir})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(tools_dir))
    from abdlint.cli import main as abdlint_main

    argv: list[str] = list(args.paths)
    if not argv and not args.self_test:
        argv = [
            str(root / name)
            for name in ("src", "tests", "benchmarks", "tools")
            if (root / name).is_dir()
        ]
    if args.select:
        argv += ["--select", args.select]
    if args.sarif:
        argv += ["--sarif", args.sarif]
    if args.no_cache:
        argv += ["--no-cache"]
    if args.self_test:
        argv += ["--self-test"]
    return abdlint_main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceSchemaError,
        load_trace,
        load_trace_lenient,
        render_report,
        write_chrome_trace,
    )

    if args.strict:
        try:
            events = load_trace(args.trace_file)
        except TraceSchemaError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
    else:
        events, skipped = load_trace_lenient(args.trace_file)
        if skipped:
            lineno, reason = skipped[0]
            print(
                f"warning: {args.trace_file}: skipped "
                f"{len(skipped)} unrecognised line(s), first at line "
                f"{lineno}: {reason} (use --strict to fail instead)",
                file=sys.stderr,
            )
    print(render_report(events))
    if args.chrome is not None:
        path = write_chrome_trace(args.chrome, events)
        print(f"saved Chrome trace {path}")
    return 0


def _resolve_audit_run(ref: Path) -> tuple[Path, Path | None]:
    """Resolve a run reference to ``(audit JSONL, manifest or None)``.

    A directory means a scenario/CLI artifact directory (``audit.jsonl``
    next to ``manifest.json``); a file means the JSONL itself, with the
    manifest looked up at its conventional sibling path.
    """
    from repro.obs import audit as _audit

    if ref.is_dir():
        jsonl = ref / "audit.jsonl"
        if not jsonl.is_file():
            raise FileNotFoundError(f"{ref} contains no audit.jsonl")
    else:
        jsonl = ref
    if not jsonl.is_file():
        raise FileNotFoundError(f"no such audit file: {jsonl}")
    for candidate in (
        _audit.manifest_path_for(jsonl),
        jsonl.parent / "manifest.json",
    ):
        if candidate.is_file():
            return jsonl, candidate
    return jsonl, None


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs import audit as _audit
    from repro.obs.audit_report import (
        build_audit_report,
        diff_audit,
        render_audit_report,
        render_diff,
    )

    def load(
        ref: Path,
    ) -> tuple[list[dict[str, object]], "dict[str, object] | None"]:
        jsonl, manifest_path = _resolve_audit_run(ref)
        records, skipped = _audit.load_audit(jsonl, strict=args.strict)
        if skipped:
            lineno, reason = skipped[0]
            print(
                f"warning: {jsonl}: skipped {len(skipped)} invalid "
                f"line(s), first at line {lineno}: {reason} "
                "(use --strict to fail instead)",
                file=sys.stderr,
            )
        manifest = (
            _audit.load_manifest(manifest_path)
            if manifest_path is not None
            else None
        )
        return records, manifest

    try:
        if args.diff is not None:
            records_a, _ = load(args.diff[0])
            records_b, _ = load(args.diff[1])
            diff = diff_audit(records_a, records_b)
            print(render_diff(diff, tol=args.tol))
            return 1 if args.check and diff.exceeds(args.tol) else 0
        if args.run is None:
            print(
                "repro audit: a run path (or --diff A B) is required",
                file=sys.stderr,
            )
            return 2
        records, manifest = load(args.run)
    except (FileNotFoundError, _audit.AuditSchemaError) as exc:
        print(f"repro audit: {exc}", file=sys.stderr)
        return 2
    if manifest is not None:
        package = manifest.get("package")
        parts = [f"schema {manifest.get('schema')}"]
        if isinstance(package, dict):
            parts.append(f"{package.get('name')} {package.get('version')}")
        for key in ("command", "seed"):
            if key in manifest:
                parts.append(f"{key} {manifest[key]}")
        print("manifest: " + ", ".join(parts) + "\n")
    report = build_audit_report(records)
    print(render_audit_report(report, timelines=not args.no_timelines))
    return 0


_COMMANDS = {
    "scenario": _cmd_scenario,
    "lint": _cmd_lint,
    "report": _cmd_report,
    "audit": _cmd_audit,
}

#: Pure consumers: recording their own activity would be noise.
_ANALYSIS_COMMANDS = ("report", "audit", "lint")


def _command_manifest(args: argparse.Namespace) -> "dict[str, object]":
    """A provenance manifest for one CLI invocation (``--audit`` mode)."""
    from repro.experiments.io import collect_registries
    from repro.obs import audit as _audit

    return _audit.build_manifest(
        command=args.command,
        spec=dict(sorted(vars(args).items())),
        registries=collect_registries(),
    )


def _save_audit(
    args: argparse.Namespace, auditor: object, path: Path
) -> None:
    from repro.obs import audit as _audit

    assert isinstance(auditor, _audit.Auditor)
    auditor.save(path)
    _audit.write_manifest(_audit.manifest_path_for(path), _command_manifest(args))
    print(f"saved audit {path}")


def main(argv: list[str] | None = None) -> int:
    from contextlib import ExitStack

    from repro.obs import audit as _audit
    from repro.obs import trace as _trace

    args = build_parser().parse_args(argv)
    analysis = args.command in _ANALYSIS_COMMANDS
    # --trace/--audit PATH record the command in a fresh scoped instance;
    # REPRO_TRACE/REPRO_AUDIT=<path> installed a process-wide one at
    # import.  Either way the stream is persisted once the command is done.
    trace_flag = None if analysis else getattr(args, "trace", None)
    audit_flag = None if analysis else getattr(args, "audit", None)
    with ExitStack() as stack:
        tr = stack.enter_context(_trace.traced()) if trace_flag else _trace.tracer()
        au = stack.enter_context(_audit.audited()) if audit_flag else _audit.auditor()
        status = _COMMANDS[args.command](args)
    if not analysis:
        trace_path = trace_flag or _trace.env_trace_path()
        if tr is not None and trace_path is not None:
            tr.save(trace_path)
            print(f"saved trace {trace_path}")
        audit_path = audit_flag or _audit.env_audit_path()
        if au is not None and audit_path is not None:
            _save_audit(args, au, audit_path)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
