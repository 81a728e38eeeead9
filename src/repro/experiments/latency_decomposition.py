"""E16 (extension): latency decomposition vs load — where the time goes.

E15's saturation curve shows *that* p99 latency diverges past the knee;
this experiment shows *why*.  Each cell reruns the serving loop with an
armed :class:`repro.obs.spans.SpanCollector` and attributes every
completed query's end-to-end latency into the five critical-path buckets
(queueing / service / transit / disk / retransmission).  Under light
load the mean latency is service-dominated — the machine itself is the
path.  Past the knee the admission queue takes over: the queueing share
climbs toward 1 while the absolute service time barely moves, the
classic open-loop overload signature, now visible per bucket.

Span collection is armed *inside* the point function (a local collector
per cell), so cells stay independent and the sweep still fans out over
worker processes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.obs.critical_path import BUCKETS, explain
from repro.obs import SpanCollector, collecting
from repro.serve import ServeConfig, serve
from repro.sweep import map_points

#: Offered rates straddling the default ring machine's knee at the quick
#: scale: comfortably under capacity (service-dominated), past the knee,
#: deep in overload (queueing-dominated).
DEFAULT_RATES = (2.0, 10.0, 40.0)


def _point(
    machine: str,
    rate: float,
    duration_ms: float,
    seed: int,
    scale: float,
    selectivity: float,
    processors: int,
    max_inflight: int,
    queue_limit: int,
) -> dict:
    """One cell: a traced serving run plus its explain-latency report.

    Module-level so ``map_points`` can pickle it; the collector is local
    to the cell, so parallel workers never share span state.
    """
    config = ServeConfig(
        machine=machine,
        rate_qps=rate,
        duration_ms=duration_ms,
        seed=seed,
        scale=scale,
        selectivity=selectivity,
        processors=processors,
        max_inflight=max_inflight,
        queue_limit=queue_limit,
    )
    collector = SpanCollector()
    with collecting(collector):
        slo = serve(config)
    return {"slo": slo, "explain": explain(collector, top=1)}


def run(
    machines: Sequence[str] = ("ring",),
    rates: Sequence[float] = DEFAULT_RATES,
    duration_ms: float = 3000.0,
    seed: int = 1979,
    scale: float = 0.05,
    selectivity: float = 0.1,
    processors: int = 8,
    max_inflight: int = 8,
    queue_limit: int = 64,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep offered rate x machine; report the per-bucket latency shares.

    Row fields: ``machine``, ``rate_qps``, ``p99_ms`` (end to end), one
    ``<bucket>_share`` column per bucket (fraction of mean latency), and
    ``dominant`` — the bucket carrying the largest share, which flips
    from service to queueing as the rate crosses the knee.
    """
    result = ExperimentResult(
        experiment_id="E16 (extension)",
        title="Latency decomposition vs load: critical-path bucket shares",
        parameters={
            "duration_ms": duration_ms,
            "scale": scale,
            "selectivity": selectivity,
            "seed": seed,
            "processors": processors,
            "max_inflight": max_inflight,
            "queue_limit": queue_limit,
        },
    )
    grid = [(machine, rate) for machine in machines for rate in rates]
    points = [
        dict(
            machine=machine,
            rate=rate,
            duration_ms=duration_ms,
            seed=seed,
            scale=scale,
            selectivity=selectivity,
            processors=processors,
            max_inflight=max_inflight,
            queue_limit=queue_limit,
        )
        for machine, rate in grid
    ]
    cells = map_points(_point, points, workers=workers)
    for (machine, rate), cell in zip(grid, cells):
        report = cell["explain"]
        shares = {kind: report["buckets"][kind]["share"] for kind in BUCKETS}
        dominant = max(BUCKETS, key=lambda kind: (shares[kind], kind))
        row = {
            "machine": machine,
            "rate_qps": rate,
            "queries": report["queries"],
            "p99_ms": report["end_to_end"]["p99_ms"],
        }
        for kind in BUCKETS:
            row[f"{kind}_share"] = shares[kind]
        row["dominant"] = dominant
        result.rows.append(row)
    return result


def main() -> None:  # pragma: no cover - manual entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
