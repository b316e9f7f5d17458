"""Command-line interface: ``python -m repro <command>``.

``scenario``  — run / list / validate declarative scenario specs; every
paper artefact is a shipped spec (``scenario run table5 | figure3 |
schemes | backdoor | tolerance | pipeline | defence_matrix ...``) — to
vary a parameter, copy the shipped TOML and edit it
``inspect``   — read a run directory back: manifest, stored report, the
Table-V-style trace breakdown and the forensic detection report, or a
cross-run diff
``lint``      — run the abdlint static-analysis engine over the tree

``scenario run SPEC --out DIR`` is the only command that persists
anything: it leaves one run directory (:mod:`repro.scenario.rundir` —
manifest, report, cells), and with ``--trace`` / ``--audit`` (or under
``REPRO_TRACE=1`` / ``REPRO_AUDIT=1``) the :mod:`repro.obs` trace and
defence-forensics streams in it.  ``inspect DIR`` is the only reader.
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
    sn_run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes the cells are sharded across; results are "
        "bit-identical for every N (default: REPRO_WORKERS or 1)",
    )
    sn_run.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="leave the run directory (manifest, report, cells, enabled "
        "streams) under DIR",
    )
    sn_run.add_argument(
        "--trace",
        action="store_true",
        help="with --out: record the observability trace into DIR",
    )
    sn_run.add_argument(
        "--audit",
        action="store_true",
        help="with --out: record the defence forensics stream into DIR",
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

    ins = sub.add_parser(
        "inspect", help="read a run directory written by 'scenario run --out'"
    )
    ins.add_argument("run", type=Path, help="run directory")
    ins.add_argument(
        "--diff",
        type=Path,
        metavar="OTHER",
        default=None,
        help="compare with run directory OTHER instead: per-cell "
        "detection/metric deltas",
    )
    ins.add_argument(
        "--check",
        action="store_true",
        help="with --diff: exit 1 when any delta exceeds --tol or the "
        "cell sets differ",
    )
    ins.add_argument(
        "--tol",
        type=float,
        default=None,
        help="with --diff: absolute delta tolerance (default: 1e-9)",
    )
    ins.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first invalid stream line instead of skipping "
        "(and counting) it",
    )
    ins.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="PATH",
        help="additionally export the trace in Chrome trace_event format",
    )
    ins.add_argument(
        "--no-timelines",
        action="store_true",
        help="omit the per-device suspicion timelines",
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

    return parser


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import (
        ScenarioRunner,
        expand_cells,
        load_shipped_spec,
        resolve_spec,
        rundir,
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
    if args.out is None:
        print(ScenarioRunner(workers=args.workers).run(spec).table)
        return 0
    result, paths = rundir.record(
        spec,
        args.out,
        workers=args.workers,
        command=f"scenario run {args.spec}",
        traced=args.trace,
        audited=args.audit,
    )
    print(result.table)
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


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs import render_report, write_chrome_trace
    from repro.obs.audit_report import (
        build_audit_report,
        diff_audit,
        render_audit_report,
        render_diff,
    )
    from repro.scenario import rundir

    def load(ref: Path, need: str | None = None) -> rundir.RunDir:
        streams = ("trace", "audit") if args.diff is None else ("audit",)
        run = rundir.read(ref, strict=args.strict, streams=streams)
        for path, bad in run.skipped.items():
            lineno, reason = bad[0]
            print(
                f"warning: {path}: skipped {len(bad)} invalid line(s), "
                f"first at line {lineno}: {reason} (use --strict to fail "
                "instead)",
                file=sys.stderr,
            )
        if need is not None and getattr(run, need) is None:
            raise FileNotFoundError(f"{ref} holds no {need} stream")
        return run

    try:
        if args.diff is not None:
            tol = 1e-9 if args.tol is None else args.tol
            diff = diff_audit(
                load(args.run, "audit").audit, load(args.diff, "audit").audit
            )
            print(render_diff(diff, tol=tol))
            return 1 if args.check and diff.exceeds(tol) else 0
        run = load(args.run, "trace" if args.chrome is not None else None)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro inspect: {exc}", file=sys.stderr)
        return 2
    manifest = run.manifest
    package = manifest.get("package")
    parts = [f"schema {manifest.get('schema')}"]
    if isinstance(package, dict):
        parts.append(f"{package.get('name')} {package.get('version')}")
    for key in ("command", "seed"):
        if key in manifest:
            parts.append(f"{key} {manifest[key]}")
    print("manifest: " + ", ".join(parts))
    if "status" in manifest:
        error = f" - {manifest['error']}" if "error" in manifest else ""
        print(f"status: {manifest['status']}{error}")
    if run.report is not None:
        print("\n" + run.report, end="")
    if run.trace is None:
        print("\ntrace: off")
    else:
        print("\n" + render_report(run.trace))
        if args.chrome is not None:
            print(f"saved Chrome trace {write_chrome_trace(args.chrome, run.trace)}")
    if run.audit is None:
        print("\naudit: off")
    else:
        report = build_audit_report(run.audit)
        print("\n" + render_audit_report(report, timelines=not args.no_timelines))
    return 0


_COMMANDS = {
    "scenario": _cmd_scenario,
    "inspect": _cmd_inspect,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "inspect" and args.diff is None:
        if args.check or args.tol is not None:
            parser.error("--check / --tol require --diff OTHER")
    if getattr(args, "scenario_command", None) == "run" and args.out is None:
        if args.trace or args.audit:
            parser.error("--trace / --audit require --out DIR")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
