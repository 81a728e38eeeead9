"""Byte-identity gate for observability.

The repo's oracle is the rendered experiment report: every experiment is
deterministic, so an observability axis must produce byte-identical
renders.  This module runs each experiment once unobserved and once with
the whole :class:`repro.obs.ObsSession` armed (Chrome tracer, metrics
registry, span collector), and reports any experiment whose output
changed.  The probe only observes existing state transitions, so the
sinks must be invisible in every report, including the serving
experiments whose reports carry ``events_processed``.

Exposed through ``repro check --tracing-identity`` and exercised (on a
subset) by the test suite.

Configurations are the experiments' quick grids — small enough for CI,
large enough to cross every protocol path (joins, broadcasts, failover,
admission, crash recovery).
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckError

#: experiment name -> (module, quick kwargs).  Names match ``repro run``.
QUICK_CONFIGS: Dict[str, Tuple[str, Dict]] = {
    "figure_3_1": (
        "repro.experiments.figure_3_1",
        dict(processors=(2, 4), scale=0.05, selectivity=0.3),
    ),
    "section_3_3": ("repro.experiments.section_3_3", {}),
    "figure_4_2": (
        "repro.experiments.figure_4_2",
        dict(ips=(2, 4), scale=0.05, selectivity=0.3, controllers=12),
    ),
    "packets": ("repro.experiments.packets_demo", {}),
    "dataflow": ("repro.experiments.dataflow_machine", dict(processors=(2, 8), scale=0.05)),
    "ring_sizing": (
        "repro.experiments.ring_sizing_exp",
        dict(ips=(2, 4), scale=0.05, selectivity=0.3),
    ),
    "tuple_granularity": (
        "repro.experiments.granularity_tuple",
        dict(processors=(3,), scale=0.05, selectivity=0.3),
    ),
    "ring_vs_direct": (
        "repro.experiments.ring_vs_direct",
        dict(ips=(3,), scale=0.05, selectivity=0.3, controllers=12),
    ),
    "project": ("repro.experiments.project_operator", dict(processors=(1, 4), rows=4000)),
    "fault_tolerance": (
        "repro.experiments.fault_tolerance",
        dict(processors=6, kill_counts=(0, 2), scale=0.05),
    ),
    "chaos": (
        "repro.experiments.chaos_sweep",
        dict(machines=("ring", "direct"), rates=(0.0, 0.05), scale=0.02, processors=6),
    ),
    "serving": (
        "repro.experiments.serving",
        dict(machines=("ring",), rates=(20.0, 60.0), duration_ms=1500.0, scale=0.05),
    ),
    "latency_decomposition": (
        "repro.experiments.latency_decomposition",
        dict(machines=("ring",), rates=(20.0, 60.0), duration_ms=1500.0, scale=0.05),
    ),
    "recovery": (
        "repro.experiments.recovery_sweep",
        dict(
            machines=("ring", "direct", "dataflow"),
            write_fractions=(0.5,),
            crash_rates=(0.0, 1.0),
            scale=0.02,
            queries=6,
            workers=1,
        ),
    ),
}


def render_experiment(name: str) -> str:
    """One experiment's rendered report under its quick configuration."""
    try:
        module_name, kwargs = QUICK_CONFIGS[name]
    except KeyError:
        raise CheckError(
            f"no identity configuration for experiment {name!r} "
            f"(known: {', '.join(sorted(QUICK_CONFIGS))})"
        ) from None
    module = importlib.import_module(module_name)
    result = module.run(**dict(kwargs))
    return str(result.render())


def tracing_identity_mismatches(
    experiments: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run the tracing identity gate; returns mismatch descriptions.

    Each experiment runs twice — unobserved, then with every sink armed —
    and the rendered reports are compared byte for byte.  An empty list
    means observability is output-invisible, which is the contract.
    """
    from repro import obs

    names = list(experiments) if experiments else list(QUICK_CONFIGS)
    mismatches: List[str] = []
    for name in names:
        baseline = render_experiment(name)
        with obs.observe(trace=True, metrics=True), obs.collecting():
            variant = render_experiment(name)
        if baseline != variant:
            first_diff = next(
                (
                    i
                    for i, (a, b) in enumerate(
                        zip(baseline.splitlines(), variant.splitlines())
                    )
                    if a != b
                ),
                min(len(baseline.splitlines()), len(variant.splitlines())),
            )
            mismatches.append(
                f"{name}: tracing output diverges from baseline "
                f"(first differing line {first_diff + 1})"
            )
    return mismatches
