"""Simulation-time fault injection: seeded decisions + recovery counters.

One :class:`FaultInjector` is bound per :class:`repro.sim.engine.Simulator`
at construction (see ``Simulator.__init__``), exactly like the sanitizer:
components (rings, caches, the ring machine) ask the simulator for its
injector once, resolve the specs that govern their own site, and keep
``None`` when nothing is armed there — so an unarmed component runs the
verbatim fault-free code path.

Every decision draws from a named stream ``faults.<kind>.<site>`` of a
:class:`repro.sim.random.RandomStreams` seeded from the plan, so the
sequence of strikes depends only on ``(plan.seed, kind, site, draw
index)`` — never on wall clock, hash order, or other subsystems'
randomness.  Recovery actions are tallied locally (for experiment rows
and the ``repro faults`` JSON report) and surfaced through ``repro.obs``
as ``faults.*`` counters and trace instants when a session is active.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.random import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-simulator fault oracle and recovery scoreboard."""

    def __init__(self, plan: FaultPlan, sim: "Simulator"):
        self.plan = plan
        self.sim = sim
        self._streams = RandomStreams(plan.seed)
        #: (counter name, site) -> count, in first-strike order.
        self.counters: Dict[Tuple[str, str], int] = {}

    # -- spec resolution -----------------------------------------------------

    def spec(self, kind: str, site: str = "*") -> Optional[FaultSpec]:
        """The plan's spec for ``kind`` at ``site`` (exact site wins)."""
        return self.plan.spec(kind, site)

    def armed_spec(self, kind: str, site: str = "*") -> Optional[FaultSpec]:
        """Like :meth:`spec`, but None unless the spec can actually strike.

        Components resolve this once at construction; a ``None`` result
        means the component keeps its fault-free fast path, which is what
        makes a zero-rate armed run bit-identical to an unarmed one.
        """
        found = self.plan.spec(kind, site)
        return found if found is not None and found.armed else None

    # -- seeded draws --------------------------------------------------------

    def decide(self, kind: str, site: str, rate: float) -> bool:
        """One Bernoulli(rate) draw from the ``faults.<kind>.<site>`` stream."""
        if rate <= 0.0:
            return False
        stream = self._streams.stream(f"faults.{kind}.{site}")
        return stream.random() < rate

    def uniform(self, kind: str, site: str, low: float, high: float) -> float:
        """One uniform draw from the same per-site stream (strike times)."""
        stream = self._streams.stream(f"faults.{kind}.{site}")
        return stream.uniform(low, high)

    # -- recovery scoreboard -------------------------------------------------

    def count(self, name: str, site: str = "") -> None:
        """Record one fault strike or recovery action at ``site``."""
        key = (name, site)
        self.counters[key] = self.counters.get(key, 0) + 1
        if self.sim.probe is not None:
            self.sim.probe.decision("fault", self.sim.now, name, site)

    def total(self, name: str) -> int:
        """Total strikes/recoveries named ``name`` across all sites."""
        return sum(v for (n, _site), v in self.counters.items() if n == name)

    def snapshot(self) -> Dict[str, int]:
        """Sorted ``"name[site]" -> count`` view for reports and JSON."""
        flat = {
            f"{name}[{site}]" if site else name: value
            for (name, site), value in self.counters.items()
        }
        return dict(sorted(flat.items()))

    def finish(self) -> None:
        """Publish final per-site totals as ``faults.*`` gauges (end of run)."""
        metrics = self.sim.probe.metrics if self.sim.probe is not None else None
        if metrics is None:
            return
        for (name, site), value in self.counters.items():
            metrics.set_gauge(
                "faults." + name, value, site=site, run=self.sim.run_id
            )
