"""Experiment harness: one module per table/figure (see DESIGN.md §4).

Every experiment returns plain row dictionaries and can render itself as
an ASCII table, so the same code backs the unit tests, the pytest
benchmarks, and the EXPERIMENTS.md records.

:data:`EXPERIMENTS` is the one registry of them, in ``repro list`` order.
A row names the experiment for ``repro run``, its one-line summary
(which carries its E-number), the module that implements it, and the
quick keyword arguments that the tracing identity gate, the CI sanitizer
smoke and ``repro bench --quick`` run it with.  The module is imported
only when the row is used, so importing this package (and the CLI) stays
cheap.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Mapping


@dataclass(frozen=True)
class Experiment:
    """One registry row."""

    name: str
    summary: str
    module: str
    quick: Mapping[str, object]

    def load(self) -> ModuleType:
        """The implementing module (imported on first use)."""
        return importlib.import_module(self.module)


EXPERIMENTS: Dict[str, Experiment] = {
    row.name: row
    for row in (
        Experiment(
            "figure_3_1",
            "E1: page- vs relation-level granularity (DIRECT)",
            "repro.experiments.figure_3_1",
            dict(processors=(2, 4), scale=0.05, selectivity=0.3),
        ),
        Experiment(
            "section_3_3",
            "E2: tuple vs page arbitration traffic (analytic)",
            "repro.experiments.section_3_3",
            {},
        ),
        Experiment(
            "figure_4_2",
            "E3: bandwidth by level vs number of IPs (ring)",
            "repro.experiments.figure_4_2",
            dict(ips=(2, 4), scale=0.05, selectivity=0.3, controllers=12),
        ),
        Experiment(
            "packets",
            "E4: packet formats of Figures 4.3-4.5",
            "repro.experiments.packets_demo",
            {},
        ),
        Experiment(
            "dataflow",
            "E6: granularities on the MIT-model machine",
            "repro.experiments.dataflow_machine",
            dict(processors=(2, 8), scale=0.05),
        ),
        Experiment(
            "ring_sizing",
            "E7: ring technology feasibility",
            "repro.experiments.ring_sizing_exp",
            dict(ips=(2, 4), scale=0.05, selectivity=0.3),
        ),
        Experiment(
            "tuple_granularity",
            "E8: tuple granularity measured",
            "repro.experiments.granularity_tuple",
            dict(processors=(3,), scale=0.05, selectivity=0.3),
        ),
        Experiment(
            "ring_vs_direct",
            "E10: distributed vs centralized control",
            "repro.experiments.ring_vs_direct",
            dict(ips=(3,), scale=0.05, selectivity=0.3, controllers=12),
        ),
        Experiment(
            "project",
            "E11: parallel duplicate elimination",
            "repro.experiments.project_operator",
            dict(processors=(1, 4), rows=4000),
        ),
        Experiment(
            "fault_tolerance",
            "E13: survive disabled processors",
            "repro.experiments.fault_tolerance",
            dict(processors=6, kill_counts=(0, 2), scale=0.05),
        ),
        Experiment(
            "chaos",
            "E14: chaos sweep — every fault class x rate x machine",
            "repro.experiments.chaos_sweep",
            dict(machines=("ring", "direct"), rates=(0.0, 0.05), scale=0.02, processors=6),
        ),
        Experiment(
            "serving",
            "E15: serving saturation — offered rate x throughput x latency",
            "repro.experiments.serving",
            dict(machines=("ring",), rates=(20.0, 60.0), duration_ms=1500.0, scale=0.05),
        ),
        Experiment(
            "latency_decomposition",
            "E16: latency decomposition — critical-path bucket shares vs load",
            "repro.experiments.latency_decomposition",
            dict(machines=("ring",), rates=(20.0, 60.0), duration_ms=1500.0, scale=0.05),
        ),
        Experiment(
            "recovery",
            "E17: recovery sweep — byte-identical restart after stateful crashes",
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
    )
}
