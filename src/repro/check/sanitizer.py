"""Runtime simulation sanitizer: dynamic determinism & leak checks.

The static linter (:mod:`repro.check.lint`) proves properties about the
*source*; this module checks the properties only a *run* can witness:

* **delay sanity** — scheduling with a NaN/infinite delay silently corrupts
  the future-event list's ordering (NaN compares false against everything,
  so the heap invariant breaks); a negative delay rewinds the clock.
* **tie auditability** — two pending events at the *bit-identical* simulated
  time are ordered only by scheduling sequence.  That order is deterministic
  exactly when every schedule call is itself deterministic; the sanitizer
  requires every participant in such a tie to carry a non-empty label so a
  divergent replay can be traced to the offending site (unlabeled tie
  participants are un-auditable and are reported as order hazards).
* **cache frame accounting** — pinned-frame leaks at end of run, and
  double-reserve (more frame reservations than capacity) at allocation time.
* **ring packet conservation** — every packet inserted into a ring's shift
  register must also be removed (Section 4's insertion protocol); a wedge
  between the two is a lost or duplicated delivery.
* **write-ahead logging** — the transaction manager's LSN order,
  write-ahead rule, dirty pages and open transactions at end of run.

Violations raise :class:`repro.errors.SanitizerError` whose message ends
with a breadcrumb of the most recently fired events (the same labels the
:mod:`repro.obs` tracer records), so a failure points at simulated time and
context rather than just a Python stack.

Zero-cost when off: the :class:`repro.sim.engine.Simulator` holds ``None``
instead of a sanitizer unless sanitize mode is requested, mirroring the
pre-bound observability pattern — a disabled run pays one ``is not None``
check per event.

Enable per-simulator (``Simulator(sanitize=True)``) or ambiently for a
block (every simulator *constructed inside* picks it up)::

    from repro import check

    with check.sanitizing():
        report = run_benchmark(catalog, queries, processors=8)

The ``repro run <experiment> --sanitize`` CLI flag wraps the experiment in
exactly this context manager.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Tuple

from repro.errors import SanitizerError

__all__ = ["Sanitizer", "is_active", "sanitizing"]

#: Ambient sanitize mode; read once by each Simulator at construction.
_active: bool = False


def is_active() -> bool:
    """True when simulators built right now should sanitize."""
    return _active


@contextmanager
def sanitizing() -> Iterator[None]:
    """Enable sanitize mode for simulators constructed inside the block."""
    global _active
    previous = _active
    _active = True
    try:
        yield
    finally:
        _active = previous


class Sanitizer:
    """Per-simulator dynamic checker.

    The engine calls :meth:`on_schedule` / :meth:`on_fire` from its hot
    path; components (caches, rings, the transaction manager) register
    *finish checks* at construction, and the owning machine runs them via
    :meth:`repro.sim.engine.Simulator.finalize_sanitizer` once the run has
    drained.
    """

    #: Fired events kept for the breadcrumb trail.
    TRAIL_LENGTH = 8

    def __init__(self) -> None:
        self._trail: Deque[Tuple[float, str]] = deque(maxlen=self.TRAIL_LENGTH)
        #: Pending events per exact time value: [count, unlabeled_count].
        self._pending: Dict[float, List[int]] = {}
        self._finish_checks: List[Tuple[str, Callable[[], List[str]]]] = []
        self.events_audited = 0
        self.finished = False

    # -- breadcrumbs ---------------------------------------------------------

    def breadcrumb(self) -> str:
        """The recent-event trail, newest last."""
        if not self._trail:
            return "trail: (no events fired yet)"
        steps = " -> ".join(
            f"{label or '<unlabeled>'}@{time:.3f}" for time, label in self._trail
        )
        return f"trail: {steps}"

    def fail(self, message: str) -> None:
        """Raise a :class:`SanitizerError` carrying the breadcrumb trail."""
        raise SanitizerError(f"{message} [{self.breadcrumb()}]")

    # -- engine hooks --------------------------------------------------------

    def on_schedule(self, now: float, delay: float, label: str) -> None:
        """Audit one ``schedule(delay, ...)`` call made at time ``now``."""
        if math.isnan(delay):
            self.fail(f"scheduled an event with a NaN delay (label={label!r})")
        if math.isinf(delay):
            self.fail(f"scheduled an event with an infinite delay (label={label!r})")
        if delay < 0:
            self.fail(
                f"scheduled an event {-delay} ms into the past (label={label!r})"
            )
        time = now + delay
        entry = self._pending.get(time)
        if entry is None:
            self._pending[time] = [1, 0 if label else 1]
            return
        # A tie: relative order is decided by scheduling sequence alone.
        # Every participant must be labeled, or a divergence between two
        # runs could never be traced to its site.
        if not label or entry[1]:
            self.fail(
                f"same-timestamp event-order hazard at t={time}: "
                f"{entry[0] + 1} events tie and at least one is unlabeled "
                f"(new label={label!r}); label both sides or stagger them"
            )
        entry[0] += 1

    def on_fire(self, time: float, label: str) -> None:
        """Record one fired event (breadcrumb + tie bookkeeping)."""
        self.events_audited += 1
        self._trail.append((time, label))
        self._forget_pending(time, label)

    def on_drop(self, time: float, label: str) -> None:
        """A cancelled event left the heap without firing."""
        self._forget_pending(time, label)

    def _forget_pending(self, time: float, label: str) -> None:
        entry = self._pending.get(time)
        if entry is None:
            return
        entry[0] -= 1
        if not label and entry[1]:
            entry[1] -= 1
        if entry[0] <= 0:
            del self._pending[time]

    # -- component finish checks ---------------------------------------------

    def register_finish_check(
        self, name: str, check: Callable[[], List[str]]
    ) -> None:
        """Register an end-of-run invariant; ``check`` returns violations."""
        self._finish_checks.append((name, check))

    def finish(self) -> None:
        """Run every registered end-of-run check; raise on any violation."""
        self.finished = True
        violations: List[str] = []
        for name, check in self._finish_checks:
            violations.extend(f"{name}: {v}" for v in check())
        if violations:
            self.fail(
                f"{len(violations)} invariant violation(s) at end of run: "
                + "; ".join(violations)
            )
