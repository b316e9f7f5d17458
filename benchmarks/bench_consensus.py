"""Consensus backends: compute time, message bills, async execution costs.

Complements the ``table4_schemes`` artefact of
:mod:`bench_paper_artefacts`: Table II says consensus methods "impose
heavy communication costs"; this bench reports compute time and
the per-execution message bill for every registered CBA backend at
top-cluster scale, then profiles the message-driven ``"acs"`` backend
across membership sizes, consensus-level adversaries and lossy links —
simulator events, sim-time, wire messages and ABA round depth.

Emits machine-readable ``BENCH_consensus.json`` at the repo root so
future PRs can track the cost trajectory, and supports ``--check`` as a
CI gate: seeded ACS executions must replay bit-identically, must stay
live (agreed subset >= n - f) under every adversary and under link loss,
and must finish within a generous wall-clock ceiling.

Usage::

    PYTHONPATH=src python benchmarks/bench_consensus.py
    PYTHONPATH=src python benchmarks/bench_consensus.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.check.invariants import acs_subset_size, max_faulty
from repro.consensus import ACSConsensus, ConsensusResult, get_consensus
from repro.faults.plan import FaultPlan

N, D = 8, 5_000
PROTOCOLS: dict[str, dict] = {
    "voting": {},
    "committee": {"committee_size": 4},
    "pbft": {},
    "pos": {},
    "approx_agreement": {"epsilon": 1e-3, "f": 1},
    "acs": {},
}

ACS_SIZES = (4, 7, 10)
ACS_ADVERSARIES = ("none", "equivocate", "withhold", "crash_midway")
CHECK_N = 7
CHECK_SECONDS = 30.0  # generous ceiling: one ACS execution at n=7
CHECK_DROP = 0.1


def _proposals(n: int, d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(d)
    good = center + 0.05 * rng.standard_normal((n - 1, d))
    bad = center + 50.0
    return np.vstack([good, bad[None, :]])


def bench_protocol(name: str, options: dict) -> dict:
    proposals = _proposals(N, D)
    protocol = get_consensus(name, options)
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    result = protocol.agree(proposals, rng=rng)
    wall_s = time.perf_counter() - t0
    assert np.isfinite(result.value).all()
    return {
        "protocol": name,
        "n": N,
        "d": D,
        "wall_s": wall_s,
        "model_messages": result.cost.model_messages,
        "scalar_messages": result.cost.scalar_messages,
        "rounds": result.cost.rounds,
        "excluded": result.n_excluded,
    }


def _run_acs(
    n: int,
    adversary: str,
    drop: float = 0.0,
    seed: int = 0,
    d: int = 64,
) -> tuple[ConsensusResult, float]:
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(d)
    proposals = center + 0.1 * rng.standard_normal((n, d))
    f = max_faulty(n)
    byz = np.zeros(n, dtype=bool)
    if adversary != "none" and f > 0:
        byz[n - f :] = True
    plan = (
        FaultPlan.uniform(drop_probability=drop, seed=seed + 1)
        if drop > 0
        else None
    )
    protocol = ACSConsensus(adversary=adversary, fault_plan=plan)
    t0 = time.perf_counter()
    result = protocol.agree(
        proposals, byzantine_mask=byz, rng=np.random.default_rng(seed + 2)
    )
    return result, time.perf_counter() - t0


def bench_acs(n: int, adversary: str, drop: float = 0.0) -> dict:
    result, wall_s = _run_acs(n, adversary, drop=drop)
    return {
        "n": n,
        "adversary": adversary,
        "drop_probability": drop,
        "wall_s": wall_s,
        "events": result.info["events"],
        "sim_time": result.info["sim_time"],
        "subset_size": len(result.info["subset"]),
        "aba_rounds": result.info["aba_rounds"],
        "model_messages": result.cost.model_messages,
        "scalar_messages": result.cost.scalar_messages,
        "accepted": int(result.accepted.sum()),
    }


def run_all() -> dict:
    protocol_rows = []
    for name in sorted(PROTOCOLS):
        row = bench_protocol(name, PROTOCOLS[name])
        protocol_rows.append(row)
        print(
            f"{name:18s} n={row['n']:3d} d={row['d']:6d}  "
            f"wall={row['wall_s']*1e3:9.2f}ms  "
            f"msgs={row['model_messages']:5d} model / "
            f"{row['scalar_messages']:6d} scalar  "
            f"rounds={row['rounds']:2d}  excluded={row['excluded']}",
            flush=True,
        )
    acs_rows = []
    for n in ACS_SIZES:
        for adversary in ACS_ADVERSARIES:
            row = bench_acs(n, adversary)
            acs_rows.append(row)
            print(
                f"acs n={row['n']:3d} {row['adversary']:13s}  "
                f"wall={row['wall_s']*1e3:9.2f}ms  "
                f"events={row['events']:6d}  "
                f"|S|={row['subset_size']:2d}  "
                f"aba_rounds={row['aba_rounds']}",
                flush=True,
            )
    lossy = bench_acs(CHECK_N, "none", drop=CHECK_DROP)
    acs_rows.append(lossy)
    print(
        f"acs n={lossy['n']:3d} drop={CHECK_DROP:.0%}          "
        f"wall={lossy['wall_s']*1e3:9.2f}ms  events={lossy['events']:6d}  "
        f"|S|={lossy['subset_size']:2d}",
        flush=True,
    )
    return {
        "benchmark": "consensus",
        "config": {
            "top_cluster": [N, D],
            "acs_sizes": list(ACS_SIZES),
            "acs_adversaries": list(ACS_ADVERSARIES),
            "numpy": np.__version__,
        },
        "results": {"protocols": protocol_rows, "acs": acs_rows},
    }


def check() -> list[str]:
    """CI gate: determinism, liveness under faults, wall-clock ceiling."""
    failures = []
    n = CHECK_N
    f = max_faulty(n)

    # 1. bit-identical replay (the determinism contract of the backend)
    a, _ = _run_acs(n, "equivocate", seed=7)
    b, _ = _run_acs(n, "equivocate", seed=7)
    if not (
        np.array_equal(a.value, b.value)
        and np.array_equal(a.accepted, b.accepted)
        and a.info["events"] == b.info["events"]
        and a.info["sim_time"] == b.info["sim_time"]
    ):
        failures.append(
            "acs: two executions with the same seed diverged "
            f"(events {a.info['events']} vs {b.info['events']})"
        )
    print(f"check determinism      events={a.info['events']}", flush=True)

    # 2. liveness + subset floor under every adversary and under loss
    scenarios = [(adv, 0.0) for adv in ACS_ADVERSARIES]
    scenarios.append(("none", CHECK_DROP))
    scenarios.append(("equivocate", CHECK_DROP))
    for adversary, drop in scenarios:
        result, wall_s = _run_acs(n, adversary, drop=drop, seed=3)
        subset_size = len(result.info["subset"])
        n_byz = f if adversary != "none" else 0
        floor = acs_subset_size(n, max(n_byz, f))
        label = f"{adversary}/drop={drop:.0%}"
        print(
            f"check liveness {label:24s} |S|={subset_size}  "
            f"wall={wall_s*1e3:8.2f}ms",
            flush=True,
        )
        if subset_size < floor:
            failures.append(
                f"acs ({label}): agreed subset {subset_size} below the "
                f"n-f floor {floor}"
            )
        # 3. wall-clock ceiling per execution
        if wall_s > CHECK_SECONDS:
            failures.append(
                f"acs ({label}): one execution took {wall_s:.1f}s "
                f"(> {CHECK_SECONDS}s) at n={n}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="run only the CI gates (determinism, fault liveness, "
        "wall-clock ceiling) and fail on violation",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_consensus.json",
        help="where to write the JSON report (full run only)",
    )
    args = parser.parse_args(argv)

    if args.check:
        failures = check()
        if failures:
            print("\nFAIL", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("\nall consensus gates passed")
        return 0

    report = run_all()
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
