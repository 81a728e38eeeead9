"""A namespaced metrics registry with labeled dimensions.

Instruments are the :mod:`repro.sim.monitor` primitives — :class:`Counter`,
:class:`Tally`, :class:`TimeSeries` — plus plain *gauges* (last-write-wins
summary values).  Every instrument is identified by a name and a set of
``label=value`` dimensions, rendered Prometheus-style::

    ring.bytes{ring=outer-ring}
    resource.queue_depth{resource=disk0}
    query.elapsed_ms{query=Q3}

The metric names the simulators emit are a stable interface, documented in
README.md ("Observability"); experiments and the ``repro metrics`` CLI read
them back instead of hand-rolling counters.

"Metrics off" is no registry at all: the session's ``metrics`` is
``None`` and the probe skips it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.monitor import Counter, Tally, TimeSeries


def metric_key(name: str, labels: Optional[dict] = None) -> str:
    """Canonical ``name{k=v,...}`` key (labels sorted; bare name if none)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key`: ``"name{k=v}"`` -> ``(name, {k: v})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class MetricsRegistry:
    """Namespaced counters, tallies, time series, and gauges."""

    def __init__(self, capture_tally_samples: bool = False) -> None:
        #: Sweep worker registries keep raw tally samples so the parent's
        #: merge can replay them in order (bit-identical to serial).
        self._capture_tally = capture_tally_samples
        self._counters: Dict[str, Counter] = {}
        self._tallies: Dict[str, Tally] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, float] = {}

    # -- instrument access -----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The monotone counter for ``name`` + ``labels`` (created on first use)."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def tally(self, name: str, **labels: object) -> Tally:
        """The sample tally for ``name`` + ``labels``."""
        key = metric_key(name, labels)
        instrument = self._tallies.get(key)
        if instrument is None:
            instrument = self._tallies[key] = Tally(
                key, samples=[] if self._capture_tally else None
            )
        return instrument

    def series(self, name: str, **labels: object) -> TimeSeries:
        """The time series for ``name`` + ``labels``."""
        key = metric_key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = TimeSeries(key)
        return instrument

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Record a summary value (last write wins)."""
        self._gauges[metric_key(name, labels)] = value

    # -- cross-process transfer --------------------------------------------------

    def dump(self) -> dict:
        """A full-fidelity, picklable snapshot of every instrument.

        Unlike :meth:`report` (which summarizes for humans and JSON), a
        dump preserves raw tally state and raw time-series samples so a
        :meth:`merge` into another registry is lossless.  This is the
        transport format between sweep worker processes and the parent.

        Keys are sorted: a dump's byte rendering depends only on what was
        recorded, never on instrument creation order.
        """
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": dict(sorted(self._gauges.items())),
            "tallies": {
                k: (t.count, t._mean, t._m2, t.minimum, t.maximum, t.samples)
                for k, t in sorted(self._tallies.items())
            },
            "series": {k: list(ts.samples) for k, ts in sorted(self._series.items())},
        }

    def merge(self, dump: dict, run_offset: int = 0) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        ``run_offset`` is added to every numeric ``run`` label before the
        merge, so a sweep worker's locally numbered runs (1, 2, ...) land
        under exactly the ids the serial execution order would have
        assigned.  Counters add, gauges last-write-win, series extend
        sample-by-sample (still monotonicity-checked), and tallies are
        *replayed* observation-by-observation from the raw samples of a
        ``capture_tally_samples`` registry's dump — bit-identical to
        having recorded serially.
        """

        def rekey(key: str) -> str:
            if run_offset == 0:
                return key
            name, labels = parse_metric_key(key)
            run = labels.get("run")
            if run is None or not run.lstrip("-").isdigit():
                return key
            labels["run"] = str(int(run) + run_offset)
            return metric_key(name, labels)

        for key, value in dump["counters"].items():
            name, labels = parse_metric_key(rekey(key))
            self.counter(name, **labels).add(value)
        for key, value in dump["gauges"].items():
            name, labels = parse_metric_key(rekey(key))
            self.set_gauge(name, value, **labels)
        for key, state in dump["tallies"].items():
            name, labels = parse_metric_key(rekey(key))
            tally = self.tally(name, **labels)
            for sample in state[5]:
                tally.observe(sample)
        for key, samples in dump["series"].items():
            name, labels = parse_metric_key(rekey(key))
            series = self.series(name, **labels)
            for time, value in samples:
                series.record(time, value)

    # -- reading ---------------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """A counter's or gauge's current value (0.0 when never recorded)."""
        key = metric_key(name, labels)
        if key in self._counters:
            return self._counters[key].value
        return self._gauges.get(key, 0.0)

    def report(self, end_time_ms: Optional[float] = None) -> dict:
        """A machine-readable snapshot of every instrument.

        Time series are summarized (count, last, time-weighted mean to
        ``end_time_ms``) rather than dumped sample-by-sample.
        """
        series = {}
        for key, ts in sorted(self._series.items()):
            end = end_time_ms if end_time_ms is not None else (
                ts.samples[-1][0] if ts.samples else 0.0
            )
            series[key] = {
                "samples": len(ts),
                "last": ts.last,
                "time_weighted_mean": ts.time_weighted_mean(end),
            }
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": dict(sorted(self._gauges.items())),
            "tallies": {
                k: {
                    "count": t.count,
                    "mean": t.mean,
                    "min": t.minimum if t.count else 0.0,
                    "max": t.maximum if t.count else 0.0,
                    "stddev": t.stddev,
                }
                for k, t in sorted(self._tallies.items())
            },
            "series": series,
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._tallies)} tallies, {len(self._series)} series, "
            f"{len(self._gauges)} gauges)"
        )


def _csv_field(value: object) -> str:
    """RFC-4180 field quoting (metric keys carry commas in their labels)."""
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_csv(report: dict) -> str:
    """Flatten a :meth:`MetricsRegistry.report` dict into CSV text.

    One row per scalar — ``section,key,field,value`` — in sorted key
    order, so the rendering is byte-stable for a given set of recorded
    values.  Counters and gauges use the field name ``value``; tallies
    and series emit one row per summary statistic.
    """
    lines = ["section,key,field,value"]
    for section in ("counters", "gauges"):
        for key in sorted(report.get(section, {})):
            value = report[section][key]
            lines.append(f"{section},{_csv_field(key)},value,{_csv_field(value)}")
    for section in ("tallies", "series"):
        for key in sorted(report.get(section, {})):
            fields = report[section][key]
            for field in sorted(fields):
                lines.append(
                    f"{section},{_csv_field(key)},{field},{_csv_field(fields[field])}"
                )
    return "\n".join(lines) + "\n"

