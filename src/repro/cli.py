"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                    — the experiment catalog with one-line summaries
* ``run <experiment> [...]``  — regenerate one paper artifact (table + chart)
* ``trace <experiment>``      — run instrumented; write a Chrome/Perfetto trace
* ``metrics <experiment>``    — run instrumented; emit a JSON metrics report
* ``bench``                   — time every experiment; append an entry
                                to the BENCH_sweeps.json perf trajectory;
                                ``--gate`` fails on >20% events/sec drops
* ``bench-info``              — how to run the benchmark suite
* ``workload``                — describe the Section 3.2 benchmark database
* ``faults [...]``            — run the benchmark under a seeded fault plan
                                (``repro.faults``); JSON report, exit 1 on
                                any oracle mismatch
* ``recover [...]``           — run a mixed write workload under the WAL,
                                crash it (torn pages + corrupt log tail),
                                restart, and verify the recovered store is
                                byte-identical to the interpreter oracle;
                                ``--dump-prefix`` writes both images for
                                an external ``cmp``
* ``serve [...]``             — continuous multi-user serving mode: open-loop
                                arrivals into a running machine; prints a
                                byte-stable JSON SLO report (p50/p99/p999)
* ``explain-latency [...]``   — a serving run with span tracing armed:
                                attributes end-to-end latency into
                                queueing/service/transit/disk/retransmission
                                buckets (repro-explain/v1); optional
                                repro-tsdb/v1 time-series and Chrome-trace
                                flow-graph outputs
* ``check [paths...]``        — determinism lint; ``--json`` emits
                                findings as JSON; ``--self-test`` proves
                                every registered rule still fires;
                                ``--tracing-identity`` proves the armed
                                observability session (tracer, metrics,
                                spans) changes no output bytes

``run``/``trace``/``metrics`` accept ``--sanitize`` to enable the runtime
simulation sanitizer (event-order, delay, cache, ring, and WAL
invariants; violations raise ``SanitizerError``).

Sweep experiments accept ``--workers N`` to fan independent sweep points
out over N worker processes; results are byte-identical to serial.

Examples::

    python -m repro list
    python -m repro run figure_3_1 --scale 0.25 --processors 5,15,30
    python -m repro run section_3_3
    python -m repro run figure_4_2 --ips 5,25,50 --workers 4
    python -m repro trace figure_3_1 --scale 0.1 --processors 5
    python -m repro metrics ring_vs_direct --scale 0.1
    python -m repro bench --quick
    python -m repro workload --scale 0.1
    python -m repro serve --machine ring --arrivals poisson --rate 50 --seed 7
    python -m repro run serving --workers 4
    python -m repro explain-latency --machine ring --rate 80 --top 5
    python -m repro check --tracing-identity --experiments serving
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, Dict, Iterator, List, Optional

from repro import obs
from repro.experiments import EXPERIMENTS
from repro.host import MACHINES


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _emit(text: str, out: Optional[str], what: str) -> None:
    """Write ``text`` to ``out`` and say so, or print it when no path is given."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {what} to {out}")
    else:
        print(text)


@contextlib.contextmanager
def _sanitized(enabled: bool) -> Iterator[None]:
    """Run the body under the simulation sanitizer when ``enabled``."""
    if not enabled:
        yield
        return
    from repro.check import sanitizing

    with sanitizing():
        yield


def _cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    print("experiments (python -m repro run <name>):\n")
    for row in EXPERIMENTS.values():
        print(f"  {row.name.ljust(width)}  {row.summary}")
    return 0


def _experiment_kwargs(args) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.selectivity is not None:
        kwargs["selectivity"] = args.selectivity
    if args.processors is not None:
        kwargs["processors"] = tuple(args.processors)
    if args.ips is not None:
        kwargs["ips"] = tuple(args.ips)
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.sanitize:
        # The sanitize flag is ambient and process-local, so sweep points
        # must stay in this process.
        kwargs["workers"] = 1
    return kwargs


def _run_experiment(args):
    """Resolve and run one experiment; returns (result, error_code)."""
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'python -m repro list'")
        return None, 2
    run = EXPERIMENTS[args.experiment].load().run
    try:
        # The sanitizer is process-local and forces workers=1 in
        # _experiment_kwargs.
        with _sanitized(args.sanitize):
            return run(**_experiment_kwargs(args)), 0
    except TypeError as exc:
        print(f"experiment {args.experiment!r} rejected options: {exc}")
        return None, 2


def _cmd_run(args) -> int:
    result, code = _run_experiment(args)
    if result is None:
        return code
    from repro.experiments.ascii_chart import figure_3_1_chart, figure_4_2_chart

    print(result.render())
    if args.experiment == "figure_3_1" and len(result.rows) > 1:
        print()
        print(figure_3_1_chart(result.rows))
    if args.experiment == "figure_4_2" and len(result.rows) > 1:
        print()
        print(figure_4_2_chart(result.rows))
    return 0


def _cmd_trace(args) -> int:
    out = args.out or f"{args.experiment}.trace.json"
    tracer = obs.Tracer(stream_path=out) if args.stream else None
    with obs.observe(trace=True, metrics=False, tracer=tracer) as session:
        result, code = _run_experiment(args)
    if result is None:
        return code
    if args.stream:
        count = session.tracer.close()
        print(
            f"streamed {count} trace events to {out} "
            f"(load in chrome://tracing or https://ui.perfetto.dev)"
        )
    else:
        session.tracer.write(out)
        print(
            f"wrote {session.tracer.event_count} trace events to {out} "
            f"(load in chrome://tracing or https://ui.perfetto.dev)"
        )
    return 0


def _cmd_metrics(args) -> int:
    from repro.experiments.common import metrics_report

    with obs.observe(trace=False, metrics=True) as session:
        result, code = _run_experiment(args)
    if result is None:
        return code
    if args.format == "csv":
        from repro.obs.metrics import report_csv

        text = report_csv(session.metrics.report()).rstrip("\n")
    else:
        report = metrics_report(session.metrics, experiment_id=args.experiment)
        text = json.dumps(report, indent=2, sort_keys=True)
    _emit(text, args.out, "metrics report")
    return 0


def _cmd_workload(args) -> int:
    from repro.workload import benchmark_queries, generate_benchmark_database

    db = generate_benchmark_database(scale=args.scale, seed=args.seed)
    print(
        f"Section 3.2 benchmark database at scale={args.scale} (seed {args.seed}):\n"
    )
    print(db.catalog.summary())
    trees = benchmark_queries(db.catalog, db.relation_names)
    print(f"\nten-query mix (19 joins, 28 restricts):")
    for tree in trees:
        print(f"  {tree.name}: {tree.join_count} joins, {tree.restrict_count} restricts, "
              f"relations {tree.leaf_relations()}")
    return 0


def _cmd_bench(args) -> int:
    from repro.sweep import bench

    only = [part for part in (args.only or "").split(",") if part] or None
    known = bench.bench_names()
    unknown = [name for name in only or () if name not in known]
    if unknown:
        print(f"unknown bench name(s) {', '.join(unknown)}; known: {', '.join(known)}")
        return 2
    report = bench.run_bench(
        quick=args.quick, scale=args.scale, workers=args.workers, only=only
    )
    totals = report["totals"]
    width = max(len(name) for name in known)
    for entry in report["experiments"]:
        print(
            f"  {entry['experiment']:<{width}} {entry['wall_s']:>8.2f}s  "
            f"{entry['sim_events']:>10} events  {entry['events_per_sec']:>9} ev/s"
        )
    if args.gate:
        previous = bench.load_history(args.out)["entries"]
        if previous:
            failures = bench.compare_entries(previous[-1], report)
            if failures:
                print(f"\nperf gate FAILED vs last entry in {args.out}:")
                for failure in failures:
                    print(f"  {failure}")
                return 1
            print(f"\nperf gate OK vs last entry in {args.out}")
        else:
            print(f"\nperf gate: no history at {args.out}; nothing to compare")
    history = bench.append_bench(report, args.out)
    print(
        f"\nappended entry {len(history['entries'])} to {args.out}: "
        f"{totals['wall_s']:.2f}s total, {totals['sim_events']} events, "
        f"{totals['events_per_sec']} ev/s"
    )
    return 0


def _cmd_check(args) -> int:
    from repro.check.lint import lint_paths, render_json, render_text, self_test

    if args.self_test:
        problems = self_test()
        if problems:
            for problem in problems:
                print(problem)
            return 2
        print("self-test OK: every rule fires and suppresses")
        return 0
    if args.tracing_identity:
        from repro.check.identity import tracing_identity_mismatches

        experiments = [
            part for part in (args.experiments or "").split(",") if part
        ] or None
        mismatches = tracing_identity_mismatches(experiments)
        for mismatch in mismatches:
            print(mismatch)
        if mismatches:
            return 1
        print("tracing identity OK: byte-identical renders")
        return 0
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"repro check: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(args.paths)
    fmt = "json" if args.as_json else "text"
    text = render_json(findings) if args.as_json else render_text(findings)
    _emit(text, args.report_out, f"{len(findings)} finding(s) as {fmt}")
    return 1 if findings else 0


def _cmd_faults(args) -> int:
    """Run the benchmark under a fault plan; print a JSON chaos report."""
    from repro.experiments.chaos_sweep import run_faulted_benchmark
    from repro.faults import FaultPlan, FaultSpec

    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    else:
        specs = []
        if args.drop > 0:
            specs.append(FaultSpec(kind="ring_drop", rate=args.drop))
        if args.corrupt > 0:
            specs.append(FaultSpec(kind="ring_corrupt", rate=args.corrupt))
        if args.disk_error > 0:
            specs.append(FaultSpec(kind="disk_read_error", rate=args.disk_error))
        if args.poison > 0:
            specs.append(FaultSpec(kind="cache_poison", rate=args.poison))
        if args.ic_rate > 0:
            specs.append(
                FaultSpec(kind="ic_failure", rate=args.ic_rate, at_ms=50.0, max_failovers=5)
            )
        if args.kill > 0:
            specs.append(
                FaultSpec(
                    kind="ip_kill",
                    kills=tuple(
                        (ip_id, args.kill_at + 50.0 * ip_id)
                        for ip_id in range(1, args.kill + 1)
                    ),
                )
            )
        plan = FaultPlan(seed=args.seed, specs=tuple(specs))

    with _sanitized(args.sanitize):
        summary = run_faulted_benchmark(
            args.machine,
            plan,
            scale=args.scale,
            selectivity=args.selectivity,
            seed=args.seed,
            processors=args.processors,
        )
    payload = {"machine": args.machine, "plan": plan.to_dict(), **summary}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out, "fault report")
    return 0 if summary["all_correct"] else 1


def _cmd_recover(args) -> int:
    """One crash-recovery trial; JSON report, exit 1 on contract breach.

    Runs the mixed read/write stream on the chosen machine with the WAL
    armed and the stateful fault plan (machine crash + torn pages +
    corrupt log tail), restarts, and compares the recovered stable
    store byte-for-byte against the interpreter oracle.  With
    ``--dump-prefix`` the recovered and oracle images are written to
    ``<prefix>.recovered.bin`` / ``<prefix>.oracle.bin`` so an external
    ``cmp`` can witness the byte identity.
    """
    from repro.recovery.harness import run_crash_trial

    with _sanitized(args.sanitize):
        trial = run_crash_trial(
            machine=args.machine,
            seed=args.seed,
            scale=args.scale,
            write_fraction=args.write_fraction,
            crash_rate=args.crash_rate,
            torn_page_rate=args.torn_rate,
            log_tail_rate=args.tail_rate,
            crash_at_ms=args.crash_at,
            queries=args.queries,
            processors=args.processors,
        )
    if args.dump_prefix:
        recovered_path = f"{args.dump_prefix}.recovered.bin"
        oracle_path = f"{args.dump_prefix}.oracle.bin"
        with open(recovered_path, "wb") as handle:
            handle.write(trial.recovered_bytes)
        with open(oracle_path, "wb") as handle:
            handle.write(trial.oracle)
        print(f"wrote {recovered_path} and {oracle_path}")
    _emit(json.dumps(trial.to_dict(), indent=2, sort_keys=True), args.out, "recovery report")
    return 0 if trial.ok else 1


def _serve_config(args):
    """Build a ServeConfig from the shared serving option set."""
    from repro.serve import ServeConfig

    return ServeConfig(
        machine=args.machine,
        arrivals=args.arrivals,
        rate_qps=args.rate,
        duration_ms=args.duration_ms,
        seed=args.seed,
        scale=args.scale,
        b_domain=args.b_domain,
        selectivity=args.selectivity,
        page_bytes=args.page_bytes,
        processors=args.processors,
        zipf_s=args.zipf_s,
        loop=args.loop,
        users=args.users,
        think_ms=args.think_ms,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        policy=args.policy,
        write_mix=args.write_mix,
    )


def _cmd_serve(args) -> int:
    """Run one serving session; print (or write) the JSON SLO report."""
    from repro.serve import serve

    with _sanitized(args.sanitize):
        slo = serve(_serve_config(args))
    _emit(json.dumps(slo, indent=2, sort_keys=True), args.out, "SLO report")
    return 0


def _cmd_explain_latency(args) -> int:
    """A traced serving run: critical-path latency attribution report."""
    from repro.obs.critical_path import explain
    from repro.obs import SpanCollector, collecting
    from repro.obs.timeseries import build_tsdb, spans_chrome_trace
    from repro.serve import serve

    config = _serve_config(args)
    collector = SpanCollector(window_ms=args.window_ms)
    with collecting(collector):
        slo = serve(config)
    report = explain(
        collector,
        top=args.top,
        extra={
            "serve": {
                "machine": config.machine,
                "rate_qps": config.rate_qps,
                "duration_ms": config.duration_ms,
                "elapsed_ms": slo["elapsed_ms"],
                "slo_p99_ms": slo["latency"]["p99_ms"],
            }
        },
    )
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out, "latency attribution report")
    if args.tsdb_out:
        tsdb = build_tsdb(collector, end_ms=float(slo["elapsed_ms"]))
        with open(args.tsdb_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(tsdb, indent=2, sort_keys=True) + "\n")
        print(f"wrote {tsdb['windows']}-window time series to {args.tsdb_out}")
    if args.trace_out:
        trace = spans_chrome_trace(collector)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, sort_keys=True)
        print(
            f"wrote {len(trace['traceEvents'])} span-trace events to "
            f"{args.trace_out} (load in https://ui.perfetto.dev)"
        )
    return 0


def _cmd_bench_info(_args) -> int:
    print(
        "benchmark suite (one per paper table/figure):\n\n"
        "  pytest benchmarks/ --benchmark-only\n\n"
        "options:\n"
        "  REPRO_BENCH_SCALE=1.0   run at the paper's full 5.5 MB scale\n"
        "  --benchmark-json=out.json   machine-readable results\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Boral & DeWitt, 'Design Considerations "
        "for Data-flow Database Machines' (SIGMOD 1980).",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    def add_experiment_options(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("experiment", help="experiment name (see 'list')")
        parser_.add_argument(
            "--scale", type=float, default=None, help="database scale (1.0 = 5.5 MB)"
        )
        parser_.add_argument(
            "--selectivity", type=float, default=None, help="restrict selectivity"
        )
        parser_.add_argument(
            "--processors", type=_int_list, default=None, help="e.g. 5,15,30"
        )
        parser_.add_argument("--ips", type=_int_list, default=None, help="e.g. 5,25,50")
        parser_.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes for sweep points (0 = one per CPU); "
            "results are byte-identical to serial",
        )
        parser_.add_argument(
            "--sanitize",
            action="store_true",
            help="run with the simulation sanitizer enabled (invariant "
            "violations raise SanitizerError); forces serial execution",
        )

    run = sub.add_parser("run", help="run one experiment")
    add_experiment_options(run)

    trace = sub.add_parser(
        "trace", help="run one experiment with tracing; write Chrome trace JSON"
    )
    add_experiment_options(trace)
    trace.add_argument(
        "--out", default=None, help="trace file path (default <experiment>.trace.json)"
    )
    trace.add_argument(
        "--stream",
        action="store_true",
        help="flush trace events to --out incrementally (memory-bounded; "
        "same JSON document, different write path)",
    )

    metrics = sub.add_parser(
        "metrics", help="run one experiment with metrics; emit a JSON report"
    )
    add_experiment_options(metrics)
    metrics.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )
    metrics.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="report rendering: the derived JSON report, or a flat "
        "section,key,field,value CSV of the raw instrument snapshot",
    )

    workload = sub.add_parser("workload", help="describe the benchmark database")
    workload.add_argument("--scale", type=float, default=0.1)
    workload.add_argument("--seed", type=int, default=1979)

    bench = sub.add_parser(
        "bench", help="time every experiment; write a BENCH JSON report"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="each experiment's quick kwargs (CI smoke); default: run() defaults",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the workload scale of the experiments that take one",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes (0 = one per CPU)",
    )
    bench.add_argument(
        "--out", default="BENCH_sweeps.json", help="report path (JSON)"
    )
    bench.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment subset (e.g. figure_3_1,sim_core)",
    )
    bench.add_argument(
        "--gate",
        action="store_true",
        help="fail (exit 1, without appending) when any experiment's "
        "events/sec drops >20%% below the last trajectory entry",
    )

    check = sub.add_parser(
        "check", help="run the determinism linter over the sources"
    )
    check.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories (default: src)"
    )
    check.add_argument(
        "--json", action="store_true", dest="as_json", help="emit findings as JSON"
    )
    check.add_argument(
        "--out",
        dest="report_out",
        default=None,
        help="write the rendered findings to a file instead of stdout",
    )
    check.add_argument(
        "--self-test",
        action="store_true",
        dest="self_test",
        help="verify every registered rule fires on its seeded "
        "violation (CI gate)",
    )
    check.add_argument(
        "--tracing-identity",
        action="store_true",
        dest="tracing_identity",
        help="verify the fully armed observability session (Chrome tracer, "
        "metrics registry, span collector) renders every experiment "
        "byte-identically to unobserved runs (CI gate)",
    )
    check.add_argument(
        "--experiments",
        default=None,
        help="comma-separated experiment subset for --tracing-identity",
    )

    faults = sub.add_parser(
        "faults",
        help="run the benchmark under a seeded fault plan; print a JSON report",
    )
    faults.add_argument(
        "--machine", choices=["ring", "direct"], default="ring", help="target machine"
    )
    faults.add_argument("--scale", type=float, default=0.05, help="database scale")
    faults.add_argument("--selectivity", type=float, default=0.3)
    faults.add_argument("--seed", type=int, default=2027, help="plan + workload seed")
    faults.add_argument("--processors", type=int, default=8)
    faults.add_argument("--drop", type=float, default=0.0, help="ring packet drop rate")
    faults.add_argument(
        "--corrupt", type=float, default=0.0, help="ring packet corruption rate"
    )
    faults.add_argument(
        "--disk-error",
        type=float,
        default=0.0,
        dest="disk_error",
        help="transient disk read-error rate",
    )
    faults.add_argument(
        "--poison", type=float, default=0.0, help="cache frame poison rate"
    )
    faults.add_argument(
        "--ic-rate",
        type=float,
        default=0.0,
        dest="ic_rate",
        help="per-activation IC failure rate (MC failover recovers)",
    )
    faults.add_argument(
        "--kill", type=int, default=0, help="number of IPs to fail-stop mid-run"
    )
    faults.add_argument(
        "--kill-at",
        type=float,
        default=250.0,
        dest="kill_at",
        help="first IP kill time in ms (staggered +50 ms each)",
    )
    faults.add_argument(
        "--plan", default=None, help="JSON fault-plan file (overrides the rate flags)"
    )
    faults.add_argument(
        "--sanitize", action="store_true", help="run under the simulation sanitizer"
    )
    faults.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )

    recover = sub.add_parser(
        "recover",
        help="run a mixed write workload, crash it (torn pages + corrupt "
        "log tail), restart, and verify byte-identity against the oracle",
    )
    recover.add_argument("--machine", choices=MACHINES, default="ring")
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--scale", type=float, default=0.02, help="database scale")
    recover.add_argument(
        "--write-fraction", type=float, default=0.5, dest="write_fraction",
        help="fraction of the stream that are write transactions",
    )
    recover.add_argument(
        "--crash-rate", type=float, default=1.0, dest="crash_rate",
        help="probability the machine crash fires during the run",
    )
    recover.add_argument(
        "--torn-rate", type=float, default=0.5, dest="torn_rate",
        help="per-page torn-write probability at the moment of the crash",
    )
    recover.add_argument(
        "--tail-rate", type=float, default=0.5, dest="tail_rate",
        help="probability the unforced log tail is truncated/corrupted",
    )
    recover.add_argument(
        "--crash-at", type=float, default=250.0, dest="crash_at",
        help="earliest crash time in simulated ms",
    )
    recover.add_argument(
        "--queries", type=int, default=12, help="length of the mixed stream"
    )
    recover.add_argument("--processors", type=int, default=4)
    recover.add_argument(
        "--sanitize", action="store_true", help="run under the simulation sanitizer"
    )
    recover.add_argument(
        "--dump-prefix", default=None, dest="dump_prefix",
        help="write <prefix>.recovered.bin and <prefix>.oracle.bin for cmp",
    )
    recover.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )

    def add_serving_options(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--machine", choices=MACHINES, default="ring")
        parser_.add_argument(
            "--arrivals", choices=["poisson", "bursty", "diurnal"], default="poisson"
        )
        parser_.add_argument(
            "--rate", type=float, default=50.0, help="mean offered rate, queries/second"
        )
        parser_.add_argument(
            "--duration-ms",
            type=float,
            default=10_000.0,
            dest="duration_ms",
            help="arrival window in simulated ms (the run then drains)",
        )
        parser_.add_argument("--seed", type=int, default=1979)
        parser_.add_argument("--scale", type=float, default=0.05, help="database scale")
        parser_.add_argument(
            "--b-domain", type=int, default=100, dest="b_domain",
            help="join-attribute domain (small keeps joins non-empty at low scale)",
        )
        parser_.add_argument("--selectivity", type=float, default=0.1)
        parser_.add_argument(
            "--page-bytes", type=int, default=2048, dest="page_bytes"
        )
        parser_.add_argument("--processors", type=int, default=8)
        parser_.add_argument(
            "--zipf-s", type=float, default=0.8, dest="zipf_s",
            help="zipf skew of relation popularity and session activity",
        )
        parser_.add_argument(
            "--loop", choices=["open", "closed"], default="open",
            help="open = fixed arrival schedule; closed = N users with think time",
        )
        parser_.add_argument(
            "--users", type=int, default=1000,
            help="distinct sessions (open loop) or concurrent users (closed loop)",
        )
        parser_.add_argument(
            "--think-ms", type=float, default=1000.0, dest="think_ms",
            help="mean think time between a closed-loop user's queries",
        )
        parser_.add_argument(
            "--max-inflight", type=int, default=8, dest="max_inflight",
            help="admission bound on concurrently running queries",
        )
        parser_.add_argument(
            "--queue-limit", type=int, default=64, dest="queue_limit",
            help="admission queue depth; arrivals beyond it are shed",
        )
        parser_.add_argument(
            "--policy", choices=["fifo", "sjf"], default="fifo",
            help="admission queue order (sjf = shortest estimated job first)",
        )
        parser_.add_argument(
            "--write-mix", type=float, default=0.0, dest="write_mix",
            help="fraction of arrivals that are write transactions "
            "(ring only; arms the WAL and reports abort/retry stats)",
        )

    serve_cmd = sub.add_parser(
        "serve",
        help="continuous serving mode: open-loop arrivals into a running "
        "machine; prints a byte-stable JSON SLO report",
    )
    add_serving_options(serve_cmd)
    serve_cmd.add_argument(
        "--sanitize", action="store_true",
        help="run under the simulation sanitizer",
    )
    serve_cmd.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )

    explain = sub.add_parser(
        "explain-latency",
        help="run a serving session with span tracing armed; attribute "
        "end-to-end latency into critical-path buckets (repro-explain/v1)",
    )
    add_serving_options(explain)
    explain.add_argument(
        "--window-ms", type=float, default=100.0, dest="window_ms",
        help="time-series fold window in simulated ms",
    )
    explain.add_argument(
        "--top", type=int, default=10,
        help="slowest queries to list with their critical paths",
    )
    explain.add_argument(
        "--out", default=None,
        help="write the attribution report here instead of stdout",
    )
    explain.add_argument(
        "--tsdb-out", default=None, dest="tsdb_out",
        help="also write the repro-tsdb/v1 windowed time series here",
    )
    explain.add_argument(
        "--trace-out", default=None, dest="trace_out",
        help="also write a Chrome trace with per-span flow arrows here",
    )

    sub.add_parser("bench-info", help="how to run the benchmark suite")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands: Dict[str, Callable] = {
        "list": _cmd_list,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "workload": _cmd_workload,
        "bench": _cmd_bench,
        "check": _cmd_check,
        "faults": _cmd_faults,
        "recover": _cmd_recover,
        "serve": _cmd_serve,
        "explain-latency": _cmd_explain_latency,
        "bench-info": _cmd_bench_info,
    }
    if args.command is None:
        parser.print_help()
        return 0
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
