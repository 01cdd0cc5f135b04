"""PathDriver-Wash: path-driven wash optimization for continuous-flow
lab-on-a-chip biochips.

A from-scratch reproduction of *PathDriver-Wash: A Path-Driven Wash
Optimization Method for Continuous-Flow Lab-on-a-Chip Systems* (DATE 2024),
including every substrate the method depends on: a chip architecture model,
a PathDriver-style synthesis flow, a contamination engine, an ILP modeling
layer, and the DAWO baseline.

Quickstart
----------
>>> from repro import load_benchmark, benchmark, synthesize, optimize_washes
>>> spec = benchmark("PCR")
>>> synthesis = synthesize(load_benchmark("PCR"), inventory=spec.inventory)
>>> plan = optimize_washes(synthesis)
>>> plan.n_wash >= 1
True

See ``examples/`` for runnable end-to-end scripts and
``python -m repro.experiments all`` to regenerate the paper's evaluation.

Every name below resolves on first access (PEP 562), so ``import repro``
— which any ``repro.*`` import implies — loads no subpackage and none of
the numpy/scipy stack (DESIGN.md §11, docs/PERFORMANCE.md "Start-up").
"""

from repro.lazyutil import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis": ("VolumeModel", "chip_cost", "compare_plans"),
        "repro.arch": (
            "Chip", "ChipBuilder", "Device", "DeviceKind", "Grid", "Router", "figure2_chip",
        ),
        "repro.arch.control": ("ControlLayer",),
        "repro.arch.io": ("chip_from_json", "chip_to_json"),
        "repro.assay": (
            "Operation", "Reagent", "SequencingGraph", "format_assay", "parse_assay",
        ),
        "repro.baselines": ("dawo_plan", "immediate_wash_plan"),
        "repro.bench": ("BENCHMARKS", "benchmark", "benchmark_names", "load_benchmark"),
        "repro.contam": (
            "ContaminationTracker",
            "NecessityPolicy",
            "contamination_violations",
            "wash_requirements",
        ),
        "repro.core": ("PDWConfig", "PathDriverWash", "WashPlan", "optimize_washes"),
        "repro.errors": ("ReproError",),
        "repro.export": ("actuation_program", "plan_to_json"),
        "repro.schedule": ("Schedule", "ScheduledTask", "TaskKind", "render_gantt"),
        "repro.sim": ("ScheduleExecutor", "simulate_plan"),
        "repro.synth": ("ArchSpec", "SynthesisResult", "synthesize"),
        "repro.units": ("PhysicalParameters",),
        "repro.viz": ("render_chip",),
        "repro.viz.svg": ("render_svg",),
    },
)
__all__.append("__version__")
