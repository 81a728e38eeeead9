"""The serving loop: arrivals -> admission -> a running machine -> SLO.

``serve(config)`` builds the benchmark database and one machine (ring,
direct, or dataflow), schedules a seeded arrival process over the run's
horizon, and bridges arrivals into the machine through admission
control.  Latency is measured from *offered* time (the arrival instant,
including any time spent in the admission queue) to root completion —
the open-loop convention that keeps overload visible in the tail.

After the horizon closes no new work arrives; the machine drains the
admission queue and every in-flight query, the event heap empties, and
the run reports.  The whole pipeline is a pure function of the config:
same seed, byte-identical report.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import MachineError, WorkloadError
from repro.host import MACHINES, build_machine
from repro.serve.admission import ADMIT, QUEUE, AdmissionQueue
from repro.serve.arrivals import make_arrivals
from repro.serve.sessions import DEFAULT_MIX, SessionWorkload
from repro.serve.slo import LatencyRecorder, build_report
from repro.sim.random import RandomStreams
from repro.workload.generator import generate_benchmark_database

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.engine import Simulator

LOOPS = ("open", "closed")


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serving run depends on (and nothing else)."""

    machine: str = "ring"
    arrivals: str = "poisson"
    rate_qps: float = 50.0
    duration_ms: float = 10_000.0
    seed: int = 1979
    scale: float = 0.05
    b_domain: int = 100
    selectivity: float = 0.1
    page_bytes: int = 2048
    processors: int = 8
    zipf_s: float = 0.8
    mix: Tuple[float, float, float] = DEFAULT_MIX
    loop: str = "open"
    users: int = 1000
    think_ms: float = 1000.0
    max_inflight: int = 8
    queue_limit: int = 64
    policy: str = "fifo"
    #: Fraction of arrivals that are write transactions (ring only: the
    #: MC lock manager serializes conflicting writers; DIRECT and
    #: dataflow have no lock manager, so concurrent writes are unsafe).
    write_mix: float = 0.0
    # Bursty / diurnal shape knobs (ignored by poisson).
    burst_on_ms: float = 200.0
    burst_off_ms: float = 800.0
    burst_off_level: float = 0.2
    diurnal_period_ms: float = 10_000.0
    diurnal_depth: float = 0.8
    max_events: int = 5_000_000

    def validate(self) -> None:
        if self.machine not in MACHINES:
            raise WorkloadError(f"unknown machine {self.machine!r}; use {MACHINES}")
        if self.loop not in LOOPS:
            raise WorkloadError(f"unknown loop mode {self.loop!r}; use {LOOPS}")
        if self.duration_ms <= 0:
            raise WorkloadError(f"duration_ms must be positive, got {self.duration_ms}")
        if self.think_ms <= 0:
            raise WorkloadError(f"think_ms must be positive, got {self.think_ms}")
        if not 0.0 <= self.write_mix <= 1.0:
            raise WorkloadError(
                f"write_mix must be in [0, 1], got {self.write_mix}"
            )
        if self.write_mix > 0.0 and self.machine != "ring":
            raise WorkloadError(
                "write_mix needs the ring machine's lock manager; "
                f"{self.machine!r} cannot serialize concurrent writers"
            )


def _machine_utilization(report: object) -> Optional[float]:
    for field in ("ip_utilization", "processor_utilization"):
        value = getattr(report, field, None)
        if value is not None:
            return value
    return None


def serve(config: ServeConfig) -> Dict[str, object]:
    """Run one serving session and return its SLO report dict."""
    config.validate()
    db = generate_benchmark_database(
        scale=config.scale,
        seed=config.seed,
        page_bytes=config.page_bytes,
        b_domain=config.b_domain,
    )
    machine = build_machine(
        config.machine,
        db.catalog,
        processors=config.processors,
        page_bytes=config.page_bytes,
        max_events=config.max_events,
    )
    machine.publish_per_query_metrics = False
    sim = machine.sim
    streams = RandomStreams(config.seed)
    workload_rng = streams.stream("serve.workload")
    workload = SessionWorkload(
        db,
        selectivity=config.selectivity,
        zipf_s=config.zipf_s,
        mix=config.mix,
        users=config.users,
        write_mix=config.write_mix,
    )
    tm = None
    if config.write_mix > 0.0:
        from repro.recovery.store import StableStore
        from repro.recovery.txn import TransactionManager

        tm = TransactionManager(StableStore(), config.page_bytes)
        machine.attach_recovery(tm)

    latency = LatencyRecorder()
    offered_at: Dict[str, float] = {}
    completed = {"n": 0}

    if config.loop == "open":
        admission = AdmissionQueue(
            config.max_inflight, config.queue_limit, config.policy
        )
        _wire_open_loop(config, machine, workload, workload_rng, streams,
                        admission, offered_at, latency, completed)
    else:
        # Closed loop IS the admission bound: at most ``users`` queries
        # exist at once, so the queue degenerates to a counter.
        admission = AdmissionQueue(max(1, config.users), 0, "fifo")
        _wire_closed_loop(config, machine, workload, workload_rng, streams,
                          admission, offered_at, latency, completed)

    report = machine.run_service()

    config_echo = asdict(config)
    config_echo["mix"] = list(config.mix)
    slo = build_report(
        config=config_echo,
        duration_ms=config.duration_ms,
        elapsed_ms=sim.now,
        latency=latency,
        admission=admission.snapshot(),
        completed=completed["n"],
        utilization=_machine_utilization(report),
        events_processed=sim.events_processed,
    )
    if tm is not None:
        slo["writes"] = _write_report(machine, tm)
    _publish_serve_metrics(sim, slo)
    return slo


def _write_report(machine: Any, tm: Any) -> Dict[str, object]:
    """Abort/retry summary for a write-mix serving run.

    A refused lock upgrade aborts the attempt and re-queues the query
    with X demanded up front, so each committed write carries a retry
    count; the percentiles below are nearest-rank over those counts.
    """
    from repro.serve.slo import percentile

    write_aborts: Dict[str, int] = getattr(machine, "write_aborts", {})
    retries = sorted(write_aborts.get(name, 0) for name in tm.committed_names)
    attempts = tm.commits + tm.aborts
    return {
        "commits": tm.commits,
        "aborts": tm.aborts,
        "abort_rate": round(tm.aborts / attempts, 6) if attempts else 0.0,
        "retries_p50": percentile(retries, 50.0),
        "retries_p99": percentile(retries, 99.0),
        "retries_max": retries[-1] if retries else 0,
    }


# ---------------------------------------------------------------------- loops


def _wire_open_loop(
    config: ServeConfig,
    machine: Any,
    workload: SessionWorkload,
    workload_rng: random.Random,
    streams: RandomStreams,
    admission: AdmissionQueue,
    offered_at: Dict[str, float],
    latency: LatencyRecorder,
    completed: Dict[str, int],
) -> None:
    """Pre-schedule the open-loop arrival times; bridge through admission."""
    sim = machine.sim
    spans = sim.spans  # observation only: no events, no machine state
    process = make_arrivals(
        config.arrivals,
        config.rate_qps,
        on_ms=config.burst_on_ms,
        off_ms=config.burst_off_ms,
        off_level=config.burst_off_level,
        period_ms=config.diurnal_period_ms,
        depth=config.diurnal_depth,
    )
    arrival_times = process.times(config.duration_ms, streams.stream("serve.arrivals"))

    def arrive() -> None:
        tree, _session, cost_pages = workload.next_query(workload_rng)
        offered_at[tree.name] = sim.now
        if spans is not None:
            # Latency counts from the offer instant, so the span record
            # opens here — the machine's submit-time begin is idempotent.
            spans.query_begin(tree.name, sim.now)
        decision = admission.offer(tree, priority=cost_pages)
        if decision == ADMIT:
            machine.submit(tree)
        elif decision != QUEUE:
            offered_at.pop(tree.name, None)  # shed: never measured
            if spans is not None:
                spans.query_cancel(tree.name)
        if spans is not None:
            _sample_admission(spans, sim.now, admission)

    for at_ms in arrival_times:
        sim.schedule_at(at_ms, arrive, label="serve.arrival")

    def query_done(name: str, at_ms: float, _rows: int) -> None:
        _record_completion(name, at_ms, offered_at, latency, completed)
        next_tree = admission.complete()
        if next_tree is not None:
            if spans is not None:
                # The admission wait is known exactly at dequeue time:
                # offered -> now.  Explicitly named so explain-latency can
                # split admission queueing from in-machine queueing.
                spans.record(
                    "queueing",
                    next_tree.name,
                    offered_at[next_tree.name],
                    sim.now,
                    name="admission",
                )
            machine.submit(next_tree)
        if spans is not None:
            _sample_admission(spans, sim.now, admission)
            spans.count("completed", sim.now, float(completed["n"]))

    machine.on_query_complete = query_done


def _wire_closed_loop(
    config: ServeConfig,
    machine: Any,
    workload: SessionWorkload,
    workload_rng: random.Random,
    streams: RandomStreams,
    admission: AdmissionQueue,
    offered_at: Dict[str, float],
    latency: LatencyRecorder,
    completed: Dict[str, int],
) -> None:
    """``users`` sessions, each issuing one query at a time with think time."""
    sim = machine.sim
    spans = sim.spans  # observation only: no events, no machine state
    think_rng = streams.stream("serve.think")
    query_user: Dict[str, int] = {}

    def issue(user: int) -> None:
        if sim.now >= config.duration_ms:
            return  # horizon closed; this user's session ends
        tree, _session, cost_pages = workload.next_query(workload_rng)
        offered_at[tree.name] = sim.now
        query_user[tree.name] = user
        if spans is not None:
            spans.query_begin(tree.name, sim.now)
        decision = admission.offer(tree, priority=cost_pages)
        if decision != ADMIT:  # queue_limit=0 and max_inflight=users
            raise MachineError(
                f"closed loop overflowed its own user bound ({decision})"
            )
        machine.submit(tree)
        if spans is not None:
            _sample_admission(spans, sim.now, admission)

    def query_done(name: str, at_ms: float, _rows: int) -> None:
        _record_completion(name, at_ms, offered_at, latency, completed)
        admission.complete()
        if spans is not None:
            _sample_admission(spans, sim.now, admission)
            spans.count("completed", sim.now, float(completed["n"]))
        user = query_user.pop(name)
        sim.schedule(
            think_rng.expovariate(1.0 / config.think_ms),
            lambda: issue(user),
            label="serve.think",
        )

    machine.on_query_complete = query_done
    for user in range(config.users):
        # Staggered session starts so users do not arrive in lockstep.
        sim.schedule(
            think_rng.expovariate(1.0 / config.think_ms),
            lambda u=user: issue(u),
            label="serve.think",
        )


def _sample_admission(spans: Any, now: float, admission: AdmissionQueue) -> None:
    """Fold the admission gauges/counters into the time-series windows.

    Called at every admission transition (offer, dequeue, completion),
    which is exactly the set of instants where these step functions can
    change value.
    """
    spans.sample("inflight", now, float(admission.inflight))
    spans.sample("queue_depth", now, float(admission.depth))
    spans.count("offered", now, float(admission.arrived))
    spans.count("shed", now, float(admission.shed))


def _record_completion(
    name: str,
    at_ms: float,
    offered_at: Dict[str, float],
    latency: LatencyRecorder,
    completed: Dict[str, int],
) -> None:
    offered = offered_at.pop(name, None)
    if offered is None:
        raise MachineError(f"completion for unknown query {name!r}")
    latency.record(at_ms - offered)
    completed["n"] += 1


def _publish_serve_metrics(sim: "Simulator", slo: Dict[str, Any]) -> None:
    """Mirror the headline SLO numbers into the metrics registry."""
    metrics = sim.metrics
    if not metrics.enabled:
        return
    rid = sim.run_id
    metrics.set_gauge("serve.offered_qps", slo["offered_qps"], run=rid)
    metrics.set_gauge("serve.achieved_qps", slo["achieved_qps"], run=rid)
    metrics.set_gauge("serve.completed", slo["completed"], run=rid)
    lat = slo["latency"]
    for key in ("p50_ms", "p99_ms", "p999_ms", "mean_ms"):
        metrics.set_gauge(f"serve.latency_{key}", lat[key], run=rid)
    adm = slo["admission"]
    for key in ("arrived", "shed", "peak_queue", "peak_inflight"):
        metrics.set_gauge(f"serve.{key}", adm[key], run=rid)
