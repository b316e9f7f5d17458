#!/usr/bin/env python
"""Mini Table V: sweep the malicious proportion across the Theorem-2 bound.

Reproduces the headline IID / Type I row of the paper's Table V at
reduced scale: vanilla FL (Multi-Krum at the server) collapses to ~10 %
once the poisoned updates become the plurality cluster (>= 50 %), while
ABD-HFL's layered filtering plus top-level voting holds through the
57.8 % theoretical bound.

Run:
    python examples/poisoning_sweep.py          # IID, Type I
    python examples/poisoning_sweep.py noniid   # non-IID, Median rule
"""

from __future__ import annotations

import sys

from dataclasses import replace

from repro.scenario import load_shipped_spec, run_scenario
from repro.topology.analysis import max_byzantine_fraction
from repro.utils.tables import format_percent


def main(iid: bool = True) -> None:
    bound = max_byzantine_fraction(0.25, 0.25, 2)
    print(
        "Theorem 2 bound for gamma1=gamma2=25%, 3 levels: "
        f"{format_percent(bound, 4)}"
    )
    # The shipped Table V spec, narrowed to one row at 20 rounds.
    table5 = load_shipped_spec("table5")
    spec = replace(
        table5,
        fractions=(0.0, 0.2, 0.4, 0.578, 0.65),
        distributions=("iid" if iid else "noniid",),
        attacks=("type1",),
        training=replace(table5.training, n_rounds=20),
    )
    print()
    print(run_scenario(spec).table)
    print(
        "\nreduced scale (20 rounds, 12x12 synthetic digits); run the "
        "shipped `table5_paper` spec for the full Appendix D settings"
    )


if __name__ == "__main__":
    main(iid="noniid" not in sys.argv[1:])
