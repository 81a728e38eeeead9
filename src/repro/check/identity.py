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

Configurations are the quick kwargs of the :data:`repro.experiments.EXPERIMENTS`
rows — small enough for CI, large enough to cross every protocol path
(joins, broadcasts, failover, admission, crash recovery).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import CheckError
from repro.experiments import EXPERIMENTS


def render_experiment(name: str) -> str:
    """One experiment's rendered report under its quick configuration."""
    try:
        row = EXPERIMENTS[name]
    except KeyError:
        raise CheckError(
            f"no identity configuration for experiment {name!r} "
            f"(known: {', '.join(sorted(EXPERIMENTS))})"
        ) from None
    return str(row.load().run(**row.quick).render())


def tracing_identity_mismatches(
    experiments: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run the tracing identity gate; returns mismatch descriptions.

    Each experiment runs twice — unobserved, then with every sink armed —
    and the rendered reports are compared byte for byte.  An empty list
    means observability is output-invisible, which is the contract.
    """
    from repro import obs

    names = list(experiments) if experiments else list(EXPERIMENTS)
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
