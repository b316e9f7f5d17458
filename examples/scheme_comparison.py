#!/usr/bin/env python
"""Compare the four Byzantine-resistance schemes (Tables III/IV).

Trains ABD-HFL under each of the four partial/global BRA-CBA combinations
on the same 30 % Type-I-poisoned workload and prints measured robustness
next to the analytic per-round communication bill, recovering Table IV's
trade-off: scheme 3 (all BRA) is cheapest, scheme 4 (all CBA) costs the
most communication, schemes 1/2 sit between.

Run:
    python examples/scheme_comparison.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.schemes import SCHEME_DESCRIPTIONS
from repro.scenario import load_shipped_spec, run_scenario
from repro.utils.tables import format_percent, format_table


def main() -> None:
    # The shipped Tables III/IV spec (30 % Type I) at 15 rounds.
    schemes = load_shipped_spec("schemes")
    spec = replace(schemes, training=replace(schemes.training, n_rounds=15))
    rows = []
    for o in run_scenario(spec).cells:
        desc = SCHEME_DESCRIPTIONS[o.scheme]
        rows.append(
            [
                o.scheme,
                f"{o.partial_kind}/{o.global_kind}",
                format_percent(o.final_accuracy),
                o.analytic_model_messages,
                o.analytic_scalar_messages,
                desc["robustness"],
                desc["communication"],
            ]
        )
    print(
        format_table(
            [
                "scheme",
                "partial/global",
                "accuracy@30%",
                "model msgs",
                "scalar msgs",
                "paper robustness",
                "paper comm.",
            ],
            rows,
            title="Schemes 1-4 under 30% Type-I poisoning (Tables III/IV)",
        )
    )


if __name__ == "__main__":
    main()
