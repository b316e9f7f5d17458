"""Regenerate the Theorem 2 analysis and its exact verification.

Two parts:

1. the closed-form per-level tolerance table, including the paper's
   57.8125 % worked example (gamma1 = gamma2 = 25 %, three levels);
2. brute-force validation — type-I counts on explicitly generated p-ratio
   two-type m-ary trees must equal Theorem 1's closed form, and the
   honest floor must match Theorem 2.

The empirical cliff (ABD-HFL's accuracy across the bound) is the
``tolerance`` scenario spec, benched in ``bench_paper_artefacts.py``.

Also regenerates the ACSM (Theorem 3) bound check on random hierarchies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.analysis import (
    acsm_max_byzantine_fraction,
    brute_force_type1_counts,
    max_byzantine_fraction,
    paper_worked_example,
    relative_reliable_number,
    type1_count,
)
from repro.utils.reporting import emit_report
from repro.utils.tables import format_percent, format_table


def test_theorem2_closed_form_vs_brute_force(benchmark):
    def check() -> list[tuple]:
        rows = []
        for m, p, depth in [(4, 0.75, 4), (4, 0.5, 4), (3, 2 / 3, 5), (5, 0.8, 4)]:
            counts = brute_force_type1_counts(m, p, depth)
            for level, count in enumerate(counts):
                expected = round(type1_count(p, m, level))
                assert count == expected, (m, p, level)
            rows.append((m, p, depth, counts[-1]))
        return rows

    rows = benchmark.pedantic(check, rounds=1, iterations=1)
    table = [
        [level, format_percent(max_byzantine_fraction(0.25, 0.25, level), 4)]
        for level in range(5)
    ]
    report = format_table(
        ["m", "p", "depth", "type-I at bottom"],
        rows,
        title="Theorem 1: brute-force == closed form (all levels checked)",
    ) + "\n\n" + format_table(
        ["level", "max Byzantine tolerated"],
        table,
        title="Theorem 2 (gamma1=gamma2=25%)",
    )
    emit_report("theorem2_closed_form", report)
    assert paper_worked_example() == pytest.approx(0.578125)


def test_theorem3_acsm_bound(benchmark):
    def sweep() -> list[tuple]:
        rng = np.random.default_rng(3)
        rows = []
        gamma2 = 0.25
        for _ in range(200):
            n_clusters = int(rng.integers(2, 10))
            sizes = rng.integers(2, 16, size=n_clusters)
            honest = rng.random(n_clusters) < 0.6
            if not honest.any():
                honest[0] = True
            byz = np.where(honest, np.floor(gamma2 * sizes), sizes)
            realized = float(byz.sum() / sizes.sum())
            psi = relative_reliable_number(sizes, honest)
            bound = acsm_max_byzantine_fraction(gamma2, psi)
            assert realized <= bound + 1e-9
            rows.append((psi, realized, bound))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sample = [
        [f"{psi:.3f}", format_percent(realized), format_percent(bound)]
        for psi, realized, bound in rows[:8]
    ]
    emit_report(
        "theorem3_acsm",
        format_table(
            ["psi", "realized Byzantine", "Theorem 3 bound"],
            sample,
            title="Theorem 3 (ACSM): realized <= 1 - (1-gamma2) psi "
            f"(all {len(rows)} random hierarchies hold)",
        ),
    )
