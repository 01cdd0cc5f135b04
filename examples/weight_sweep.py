#!/usr/bin/env python3
"""Sweep the Eq. 26 objective weights and the wash-path cap.

Shows how the trade-off between wash-operation count, wash-path length and
assay completion time responds to the α/β/γ weights, and how the physical
cap on a single wash flush controls cluster merging.

Usage::

    python examples/weight_sweep.py [benchmark-name]
"""

import sys
from dataclasses import replace

from repro import (
    PathDriverWash,
    PDWConfig,
    benchmark,
    load_benchmark,
    optimize_washes,
    synthesize,
)

#: (label, alpha, beta, gamma)
WEIGHTS = [
    ("paper (.3/.3/.4)", 0.3, 0.3, 0.4),
    ("count-heavy", 1.0, 0.1, 0.1),
    ("length-heavy", 0.1, 1.0, 0.1),
    ("time-heavy", 0.1, 0.1, 1.0),
]

CAPS_MM = [15.0, 33.0, 100.0]


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    name = args[0] if args else "PCR"
    spec = benchmark(name)
    synthesis = synthesize(load_benchmark(name), inventory=spec.inventory)
    base = PDWConfig(time_limit_s=60.0)

    print(f"benchmark {name}; baseline completion {synthesis.baseline_makespan} s\n")
    header = f"{'configuration':<22}{'N_wash':>8}{'L_wash':>10}{'T_delay':>9}{'T_assay':>9}"
    print(header)
    print("-" * len(header))

    # The weights enter only the ILP objective, so the sweep routes once.
    plans = PathDriverWash(synthesis, base).sweep([w[1:] for w in WEIGHTS])
    for (label, *_), plan in zip(WEIGHTS, plans):
        m = plan.metrics()
        print(f"{label:<22}{m['n_wash']:>8g}{m['l_wash_mm']:>10.1f}"
              f"{m['t_delay_s']:>9g}{m['t_assay_s']:>9g}")

    print()
    print("single-flush cap sweep (paper weights):")
    for cap in CAPS_MM:
        cfg = replace(base, max_wash_path_mm=cap)
        plan = optimize_washes(synthesis, cfg)
        m = plan.metrics()
        print(f"  cap {cap:6.1f} mm -> N={m['n_wash']:g}  "
              f"L={m['l_wash_mm']:.1f} mm  T_assay={m['t_assay_s']:g} s")


if __name__ == "__main__":
    main()
