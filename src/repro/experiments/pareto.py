"""Objective-weight Pareto sweep.

Eq. (26) trades wash count, path length and completion time through α, β
and γ.  This experiment sweeps the (β, γ) balance and reports the
(L_wash, T_assay) frontier PDW traces, demonstrating that the formulation
actually responds to its weights rather than having one dominant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench import benchmark, load_benchmark
from repro.core import PathDriverWash, PDWConfig
from repro.experiments.reporting import render_table
from repro.synth import synthesize

#: (label, alpha, beta, gamma) sweep points.
DEFAULT_SWEEP: Tuple[Tuple[str, float, float, float], ...] = (
    ("length-only", 0.0, 1.0, 0.0),
    ("paper", 0.3, 0.3, 0.4),
    ("balanced", 0.2, 0.4, 0.4),
    ("time-only", 0.0, 0.0, 1.0),
)


@dataclass(frozen=True)
class ParetoPoint:
    """One sweep point's outcome."""

    label: str
    alpha: float
    beta: float
    gamma: float
    n_wash: int
    l_wash_mm: float
    t_assay: int


def pareto_points(
    bench_name: str,
    sweep: Sequence[Tuple[str, float, float, float]] = DEFAULT_SWEEP,
    base: Optional[PDWConfig] = None,
) -> List[ParetoPoint]:
    """Run the sweep on one benchmark, routing once for all its points."""
    cfg = base or PDWConfig(time_limit_s=60.0)
    spec = benchmark(bench_name)
    synthesis = synthesize(load_benchmark(bench_name), inventory=spec.inventory)
    plans = PathDriverWash(synthesis, cfg).sweep([point[1:] for point in sweep])
    return [
        ParetoPoint(
            label=label, alpha=alpha, beta=beta, gamma=gamma,
            n_wash=plan.n_wash,
            l_wash_mm=plan.l_wash_mm,
            t_assay=plan.t_assay,
        )
        for (label, alpha, beta, gamma), plan in zip(sweep, plans)
    ]


def pareto_report(bench_name: str = "PCR", base: Optional[PDWConfig] = None) -> str:
    """Render the sweep as a text table."""
    points = pareto_points(bench_name, base=base)
    headers = ["weights (α/β/γ)", "label", "N_wash", "L_wash(mm)", "T_assay(s)"]
    rows = [
        [
            f"{p.alpha:g}/{p.beta:g}/{p.gamma:g}", p.label,
            str(p.n_wash), f"{p.l_wash_mm:.1f}", str(p.t_assay),
        ]
        for p in points
    ]
    title = f"Objective sweep on {bench_name} (Eq. 26 weight response)\n"
    return title + render_table(headers, rows)
