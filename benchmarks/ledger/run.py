"""Round-phase perf ledger: the repo's benchmark (see README.md here).

One command runs four ABD-HFL trainer workloads in fresh subprocesses
with tracing off, then one traced pass per workload, prints every metric
by name with its unit, checks that the outputs are correct and writes one
JSON report::

    python benchmarks/ledger/run.py [--seed 0] [--reps 3]
        [--workloads fleet512,acs196] [--out DIR]
    python benchmarks/ledger/run.py --compare PARENT.json CHANGE.json

The benchmark driver's contract (``BENCHMARK.json``) is the same
machinery, one workload and one kind of metric per invocation, ending in
one JSON line::

    python benchmarks/ledger/run.py --workload fleet512 --seed 3
        --seconds 20 --trace 0

Load model: closed loop, one client — rounds run back to back in one
process.  Every workload subprocess is pinned to one BLAS thread; the
only multi-process workload uses two workers (``nproc`` is 2).  Layers
are measured from outside (``layers.py``); end-to-end metrics are never
taken from the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
MANIFEST = REPO / "BENCHMARK.json"

#: Each of these silently changes the code path being measured.
FORBIDDEN_ENV = ("REPRO_WORKERS", "REPRO_TRACE", "REPRO_AUDIT", "REPRO_SANITIZE")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    "rounds_per_s",
    "round_ms_p50",
    "time_to_target_s",
    "final_accuracy",
    "setup_s",
    "peak_rss_mb",
)

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: One rep is sized to ~10 s of timed rounds, so ``--seconds`` maps to
#: ``round(seconds / 10)`` fresh subprocesses (at least one).
REP_NOMINAL_S = 10.0
#: Watchdog per workload subprocess when no tighter deadline applies;
#: a rep takes 12-16 s, so this only ever fires on a hang.
REP_TIMEOUT_S = 120.0
#: The driver allows 180 s per invocation; leave room to report.
DRIVER_BUDGET_S = 165.0


# ----------------------------------------------------------------------
# one rep, in this process (the workload subprocess)
# ----------------------------------------------------------------------
def run_one(workload: Any, seed: int, traced: bool, t0: float, out: Path) -> dict:
    """Set up, warm up, run the timed rounds; return the raw measurements.

    ``t0`` is the launcher's ``CLOCK_MONOTONIC`` reading just before it
    started this process, so ``setup_s`` includes interpreter start.
    """
    import numpy as np

    import workloads
    from layers import instrumented
    from spans import END, NAME, PARENT, ROUND, SETUP_ROUND, START, Recorder

    rec = Recorder(workload.name)
    with rec.span("setup.import"):
        workloads.import_program()
    walls: list[float] = []
    non_finite = 0
    with instrumented(rec) if traced else nullcontext():
        trainer = workloads.build(workload, seed, rec.span)
        try:
            rec.round = 0
            with rec.span("setup.warmup_round"):
                trainer.run_round()
            setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
            for round_index in range(1, workload.rounds + 1):
                rec.round = round_index
                start = time.perf_counter()
                try:
                    trainer.run_round()
                except Exception:  # a raised round fails it and all after it
                    traceback.print_exc()
                    break
                walls.append(time.perf_counter() - start)
                if not np.isfinite(trainer.global_model).all():
                    non_finite += 1
        finally:
            rec.round = SETUP_ROUND
            trainer.close()
    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    # Children = the max over reaped pool workers, so self + children
    # bounds the footprint of the whole workload (as bench_pipeline.py).
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "rounds_attempted": workload.rounds,
        "rounds_failed": workload.rounds - len(walls) + non_finite,
        "round_wall_s": walls,
        "accuracy": [record.test_accuracy for record in trainer.history],
        "setup_s": setup_s,
        "setup_phases_s": {
            span[NAME]: span[END] - span[START]
            for span in rec.spans
            if span[PARENT] < 0 and span[ROUND] < 1
        },
        "peak_rss_self_mb": usage_self.ru_maxrss / 1024.0,
        "peak_rss_children_mb": usage_children.ru_maxrss / 1024.0,
        "digest": workloads.digest(trainer.global_model, trainer.history),
        "numpy": np.__version__,
    }
    if traced:
        out.mkdir(parents=True, exist_ok=True)
        spans_path = out / f"{workload.name}.spans.jsonl"
        rec.write_jsonl(spans_path)
        result["spans"] = str(spans_path)
    return result


# ----------------------------------------------------------------------
# launching and watching workload subprocesses
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a workload's whole session and wait until it is empty
    (pool workers are grandchildren: they cannot be ``wait()``-ed on)."""
    for _ in range(100):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        proc.poll()  # reap the leader: as a zombie it keeps the group alive
        time.sleep(0.05)


def launch(argv: list[str], timeout: float) -> str | None:
    """Run one subprocess of this script in its own session.

    Returns its last stdout line, or ``None`` if it timed out or failed —
    in which case the whole process group is killed and what appeared in
    ``/dev/shm`` during the run is swept: the pool's parameter slabs
    (``psm_*``) and queue semaphores (``sem.mp-*``), which a killed owner
    and its killed resource tracker never unlink.
    """
    before = shm_segments()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
        problem = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        kill_group(proc)
        stdout, stderr = proc.communicate()  # the pipes close with the group
        problem = f"timed out after {timeout:.0f} s"
    if problem is None and stdout.strip():
        return stdout.strip().splitlines()[-1]
    kill_group(proc)
    for name in sorted(shm_segments() - before):
        if name.startswith(("psm_", "sem.mp-")):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
    print(
        f"ledger: subprocess {' '.join(argv)} failed ({problem or 'no output'})\n"
        + "\n".join(stderr.strip().splitlines()[-15:]),
        file=sys.stderr,
    )
    return None


def run_rep(
    name: str, seed: int, traced: bool, out: Path, deadline: float | None
) -> dict | None:
    """One fresh workload subprocess; ``None`` if it died or hung."""
    timeout = REP_TIMEOUT_S
    if deadline is not None:
        timeout = min(timeout, deadline - time.monotonic())
    argv = ["--child", name, "--seed", str(seed), "--out", str(out)]
    if traced:
        argv.append("--traced")
    argv += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    line = launch(argv, timeout)
    return None if line is None else json.loads(line)


def warm_file_cache() -> None:
    """Throw-away import of the program, so the first timed rep does not
    pay for a cold page cache or for compiling ``.pyc`` files."""
    launch(["--warm"], REP_TIMEOUT_S)


# ----------------------------------------------------------------------
# end-to-end metrics (tracing off)
# ----------------------------------------------------------------------
def time_to_target(rep: dict, target: float) -> float | None:
    """Summed wall of the timed rounds up to the first round whose test
    accuracy reaches ``target``.  ``accuracy[0]`` is the warm-up round,
    whose wall lives in ``setup_s``."""
    for k, accuracy in enumerate(rep["accuracy"]):
        if accuracy >= target:
            return sum(rep["round_wall_s"][:k])
    return None


def end_to_end(workload: Any, reps: list[dict | None]) -> dict:
    """Median (and min..max, and the raw per-rep values) of each
    end-to-end metric over the reps that produced output."""
    alive = [rep for rep in reps if rep is not None]
    attempted = workload.rounds * len(reps)
    failed = workload.rounds * (len(reps) - len(alive))
    per_rep: dict[str, list[float]] = {name: [] for name in END_TO_END}
    pooled_ms: list[float] = []
    for rep in alive:
        reached = time_to_target(rep, workload.target)
        # A rep that never reached the target is a failed operation; one
        # that lost rounds contributes no timing either.
        lost = workload.rounds if reached is None else rep["rounds_failed"]
        if lost:
            failed += lost
            continue
        walls_ms = [1e3 * wall for wall in rep["round_wall_s"]]
        pooled_ms += walls_ms
        per_rep["rounds_per_s"].append(1e3 * len(walls_ms) / sum(walls_ms))
        per_rep["round_ms_p50"].append(statistics.median(walls_ms))
        per_rep["time_to_target_s"].append(reached)
        per_rep["final_accuracy"].append(rep["accuracy"][-1])
        per_rep["setup_s"].append(rep["setup_s"])
        per_rep["peak_rss_mb"].append(
            rep["peak_rss_self_mb"] + rep["peak_rss_children_mb"]
        )
    metrics = {}
    for name, values in per_rep.items():
        if not values:
            continue
        # The round median is pooled over the reps' rounds, not a median
        # of medians; every other metric has one value per rep.
        sample = pooled_ms if name == "round_ms_p50" else values
        metrics[name] = {
            "value": statistics.median(sample),
            "min": min(sample),
            "max": max(sample),
            "samples": len(sample),
            "per_rep": values,
        }
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def check(checks: list[dict], label: str, ok: bool, detail: str = "") -> None:
    checks.append({"check": label, "ok": bool(ok), "detail": detail})


def measure(
    workload: Any,
    seed: int,
    reps: int,
    out: Path,
    deadline: float | None,
    baseline_digest: str | None = None,
) -> dict:
    """``reps`` fresh untraced subprocesses of one workload."""
    raw = [run_rep(workload.name, seed, False, out, deadline) for _ in range(reps)]
    result = end_to_end(workload, raw)
    checks: list[dict] = []
    digests = sorted({rep["digest"] for rep in raw if rep is not None})
    check(checks, f"{workload.name}: every rep produced output", None not in raw)
    check(
        checks,
        f"{workload.name}: result digest identical across reps",
        len(digests) == 1,
        ",".join(d[:12] for d in digests),
    )
    check(
        checks,
        f"{workload.name}: no failed round, target reached",
        result["failed"] == 0,
        f"{result['failed']} of {result['attempted']} rounds failed",
    )
    if workload.baseline is not None and len(digests) == 1:
        if baseline_digest is None:
            serial = run_rep(workload.baseline, seed, False, out, deadline)
            baseline_digest = serial["digest"] if serial else None
        check(
            checks,
            f"{workload.name}: digest equals {workload.baseline}'s",
            digests[0] == baseline_digest,
            f"{digests[0][:12]} vs {str(baseline_digest)[:12]}",
        )
    result.update(
        workload=workload.name,
        seed=seed,
        digest=digests[0] if len(digests) == 1 else None,
        reps=raw,
        checks=checks,
        why=workload.why,
    )
    return result


# ----------------------------------------------------------------------
# per-layer metrics (one traced pass)
# ----------------------------------------------------------------------
def trace_pass(
    workload: Any,
    seed: int,
    out: Path,
    deadline: float | None,
    untraced: dict | None = None,
    baseline_local_s_per_round: float | None = None,
) -> dict:
    """One traced subprocess of one workload, next to an untraced one of
    the same seed (for the digest, the tail and the tracing overhead)."""
    import workloads
    from layers import layer_metrics, timed_total
    from spans import read_jsonl

    checks: list[dict] = []
    if untraced is None:
        untraced = run_rep(workload.name, seed, False, out, deadline)
    traced = run_rep(workload.name, seed, True, out, deadline)
    ok = untraced is not None and traced is not None
    check(checks, f"{workload.name}: traced pass produced output", ok)
    if not ok:
        return {
            "workload": workload.name,
            "metrics": {},
            "attempted": workload.rounds,
            "failed": workload.rounds,
            "checks": checks,
        }
    if workload.baseline is not None and baseline_local_s_per_round is None:
        base = workloads.WORKLOADS[workload.baseline]
        serial = run_rep(base.name, seed, True, out, deadline)
        if serial is not None:
            baseline_local_s_per_round = (
                timed_total(read_jsonl(Path(serial["spans"])), "local.train_round")
                / base.rounds
            )
    metrics = layer_metrics(
        read_jsonl(Path(traced["spans"])),
        workload.local_iterations,
        workload.workers,
        traced["round_wall_s"],
        untraced,
        baseline_local_s_per_round,
    )
    check(
        checks,
        f"{workload.name}: traced digest equals untraced digest",
        traced["digest"] == untraced["digest"],
        f"{traced['digest'][:12]} vs {untraced['digest'][:12]}",
    )
    check(
        checks,
        f"{workload.name}: every global model finite, no round failed",
        traced["rounds_failed"] == 0 and untraced["rounds_failed"] == 0,
    )
    check(
        checks,
        f"{workload.name}: trace.coverage within 0.98-1.02",
        0.98 <= metrics["trace.coverage"] <= 1.02,
        f"{metrics['trace.coverage']:.4f}",
    )
    check(
        checks,
        f"{workload.name}: consensus.acs_min_subset_margin >= 0",
        metrics["consensus.acs_min_subset_margin"] >= 0,
        str(metrics["consensus.acs_min_subset_margin"]),
    )
    if workload.workers > 1:
        check(checks, f"{workload.name}: shm.used == 1", metrics["shm.used"] == 1)
    return {
        "workload": workload.name,
        "metrics": metrics,
        "attempted": workload.rounds,
        "failed": traced["rounds_failed"],
        "spans": traced["spans"],
        "digest": traced["digest"],
        "checks": checks,
    }


# ----------------------------------------------------------------------
# BENCHMARK.json: the declared names are the emitted names
# ----------------------------------------------------------------------
def load_manifest() -> dict:
    manifest = json.loads(MANIFEST.read_text())
    manifest["units"] = {
        m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]
    }
    return manifest


def check_names(
    checks: list[dict], manifest: dict, kind: str, workload: str, emitted: set
) -> None:
    declared = {m["name"] for m in manifest[kind]}
    check(
        checks,
        f"{workload}: emitted {kind} metric names are exactly the declared ones",
        emitted == declared and all(map(NAME_RULE.fullmatch, emitted)),
        "only emitted: %s; only declared: %s"
        % (sorted(emitted - declared), sorted(declared - emitted)),
    )


def with_units(metrics: dict[str, Any], manifest: dict) -> dict:
    return {
        name: {
            "value": value["value"] if isinstance(value, dict) else value,
            "unit": manifest["units"].get(name, "?"),
        }
        for name, value in metrics.items()
    }


def environment(seed: int, numpy_version: str | None) -> dict:
    commit = None
    if (REPO / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_end_to_end(result: dict, manifest: dict) -> None:
    name = result["workload"]
    for metric, cell in result["metrics"].items():
        unit = manifest["units"].get(metric, "?")
        print(
            f"{name:<15} {metric:<18} {cell['value']:>12.5g} {unit:<9}"
            f" [{cell['min']:.5g} .. {cell['max']:.5g}]  n={cell['samples']}"
        )
    share = result["failed"] / result["attempted"]
    print(
        f"{name:<15} {'failed_round_share':<18} {share:>12.5g} {'fraction':<9}"
        f" [{result['failed']} of {result['attempted']} rounds]"
    )


def print_per_layer(layers: dict[str, dict], manifest: dict) -> None:
    names = list(layers)
    print(f"{'per-layer metric':<34} {'unit':<9}" + "".join(f"{n:>16}" for n in names))
    for metric in [m["name"] for m in manifest["per_layer"]]:
        cells = "".join(
            f"{layers[n]['metrics'].get(metric, float('nan')):>16.6g}" for n in names
        )
        print(f"{metric:<34} {manifest['units'][metric]:<9}{cells}")


def print_checks(checks: list[dict]) -> bool:
    for item in checks:
        if not item["ok"]:
            print(f"CHECK FAILED: {item['check']} ({item['detail']})", file=sys.stderr)
    passed = sum(item["ok"] for item in checks)
    print(f"checks: {passed} of {len(checks)} passed")
    return passed == len(checks)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def main_driver(args: argparse.Namespace) -> int:
    """The BENCHMARK.json contract: one workload, one JSON line."""
    import workloads

    manifest = load_manifest()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DRIVER_BUDGET_S
    out = Path(args.out)
    warm_file_cache()
    if args.trace:
        result = trace_pass(workload, args.seed, out, deadline)
        kind = "per_layer"
        print_per_layer({workload.name: result}, manifest)
    else:
        reps = max(1, round(args.seconds / REP_NOMINAL_S))
        result = measure(workload, args.seed, reps, out, deadline)
        kind = "end_to_end"
        print_end_to_end(result, manifest)
    checks = result["checks"]
    check_names(checks, manifest, kind, workload.name, set(result["metrics"]))
    correct = print_checks(checks)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": with_units(result["metrics"], manifest),
            }
        )
    )
    return 0 if correct else 1


def main_full(args: argparse.Namespace) -> int:
    """Every workload: ``--reps`` untraced reps, then one traced pass."""
    import workloads

    manifest = load_manifest()
    selected = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    unknown = [name for name in selected if name not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    warm_file_cache()
    checks: list[dict] = []
    runs: dict[str, dict] = {}
    for name in selected:
        workload = workloads.WORKLOADS[name]
        base = runs.get(workload.baseline or "")
        runs[name] = measure(
            workload, args.seed, args.reps, out, None, base["digest"] if base else None
        )
        print_end_to_end(runs[name], manifest)
        checks += runs[name]["checks"]
        check_names(checks, manifest, "end_to_end", name, set(runs[name]["metrics"]))
    layers: dict[str, dict] = {}
    for name in selected:
        workload = workloads.WORKLOADS[name]
        base_layers = layers.get(workload.baseline or "", {}).get("metrics")
        layers[name] = trace_pass(
            workload,
            args.seed,
            out,
            None,
            next((rep for rep in runs[name]["reps"] if rep), None),
            base_layers["local.train_round_s"]
            / workloads.WORKLOADS[workload.baseline].rounds
            if base_layers
            else None,
        )
        checks += layers[name]["checks"]
        check_names(checks, manifest, "per_layer", name, set(layers[name]["metrics"]))
        check(
            checks,
            f"{name}: traced digest equals the reps' digest",
            layers[name].get("digest") == runs[name]["digest"],
        )
    print_per_layer(layers, manifest)
    declared = {w["name"] for w in manifest["workloads"]}
    check(
        checks,
        "workload names are exactly the declared ones",
        declared == set(workloads.WORKLOADS),
        str(sorted(declared ^ set(workloads.WORKLOADS))),
    )
    ok = print_checks(checks)
    numpy_version = next(
        (rep["numpy"] for run in runs.values() for rep in run["reps"] if rep), None
    )
    report = {
        "benchmark": "ledger",
        "claim": None,
        "environment": environment(args.seed, numpy_version),
        "reps": args.reps,
        "bounds": {m["name"]: m for m in manifest["end_to_end"]},
        "units": manifest["units"],
        "end_to_end": runs,
        "per_layer": layers,
        "checks": checks,
        "ok": ok,
    }
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def main_child(args: argparse.Namespace) -> int:
    import workloads

    result = run_one(
        workloads.WORKLOADS[args.child], args.seed, args.traced, args.t0, Path(args.out)
    )
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    contract = parser.add_argument_group("BENCHMARK.json driver contract")
    contract.add_argument("--workload", help="run one workload, end in one JSON line")
    contract.add_argument("--seconds", type=float, default=3 * REP_NOMINAL_S)
    contract.add_argument("--trace", type=int, choices=(0, 1), default=0)
    internal = parser.add_argument_group("internal (the workload subprocess)")
    internal.add_argument("--child")
    internal.add_argument("--traced", action="store_true")
    internal.add_argument("--t0", type=float)
    internal.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_reports

        return compare_reports(Path(args.compare[0]), Path(args.compare[1]))
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    if args.warm:
        import workloads

        workloads.import_program()
        print("warm")
        return 0
    if args.child:
        return main_child(args)
    stray = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if stray:
        print(
            f"ledger: refusing to run with {', '.join(stray)} set: each "
            "silently changes the code path being measured",
            file=sys.stderr,
        )
        return 2
    if args.workload:
        return main_driver(args)
    return main_full(args)


# Guarded: the pooled workload's spawn workers re-import this file.
if __name__ == "__main__":
    raise SystemExit(main())
