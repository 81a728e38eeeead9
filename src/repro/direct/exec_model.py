"""Operator execution model: row-exact page kernels + device service times.

The simulated processors do two separable things:

1. **Compute real answers.**  The page kernels below produce the exact rows
   a real processor would (so simulator output is checked against the
   reference interpreter).  For equijoins the kernel uses a hash probe —
   the *result*, row order included, is identical to nested loops; only
   Python wall time differs.  The inner page is the reused operand of the
   nested-loops join (every outer page meets it), so the machines build
   its probe once with :func:`equijoin_probe` and run
   :func:`probe_join` per outer page.  A probe never holds a NaN key:
   ``nan == nan`` is false, so nested loops never match one.
2. **Charge simulated time.**  Service times follow the nested-loops cost
   the paper assumes (o_rows * i_rows pair comparisons for a join page
   pair), with constants from :mod:`repro.hw`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro import hw
from repro.relational.page import Page
from repro.relational.predicate import JoinCondition
from repro.relational.schema import Row


# ---------------------------------------------------------------------------
# Row-exact page kernels
# ---------------------------------------------------------------------------


def restrict_page(page: Page, test: Callable[[Row], bool]) -> List[Row]:
    """Rows of ``page`` passing the compiled predicate ``test``."""
    return [row for row in page.rows() if test(row)]


#: An inner page's rows grouped by join key, in page order.
Probe = Dict[Any, List[Row]]


def equijoin_probe(page: Page, index: int) -> Probe:
    """Hash probe of ``page`` on the attribute at ``index``.

    Keys that are not equal to themselves (NaN) are left out: they match
    nothing under nested loops, and a dict would match a NaN object to
    itself.
    """
    probe: Probe = {}
    for row in page.rows():
        key = row[index]
        if key == key:
            probe.setdefault(key, []).append(row)
    return probe


def probe_join(outer_page: Page, probe: Probe, outer_index: int) -> List[Row]:
    """Concatenated rows of ``outer_page`` x the probed inner page, in
    nested-loops order (outer row major, inner rows in page order)."""
    get = probe.get
    return [
        orow + irow for orow in outer_page.rows() for irow in get(orow[outer_index], ())
    ]


def join_pages(
    outer_page: Page,
    inner_page: Page,
    condition: JoinCondition,
    outer_index: int,
    inner_index: int,
) -> List[Row]:
    """Concatenated rows of one outer-page x inner-page nested-loops step.

    ``outer_index``/``inner_index`` are the join attributes' positions in
    the page schemas (precomputed once per instruction).  The machines
    call this for non-equijoins; an equijoin probes the inner page with
    :func:`probe_join` instead, with an identical result.
    """
    fn = condition.op.fn
    return [
        orow + irow
        for orow in outer_page.rows()
        for irow in inner_page.rows()
        if fn(orow[outer_index], irow[inner_index])
    ]


def project_rows(rows: List[Row], indices: List[int]) -> List[Row]:
    """Attribute cut (no dedup) of ``rows`` to the given positions."""
    return [tuple(row[i] for i in indices) for row in rows]


# ---------------------------------------------------------------------------
# Service-time model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecModel:
    """Device timing model for one machine configuration.

    All methods return **milliseconds** of service time on the named
    device.  Defaults reproduce the paper's Figure 4.2 assumptions
    (LSI-11 processors, Intel 2314 CCD cache, IBM 3330 disks).
    """

    page_bytes: int = hw.RING_PAGE_BYTES
    #: Processor-side memory rate: 16 KB in 33 ms (paper).
    proc_scan_rate: float = hw.LSI11_SCAN_RATE
    restrict_tuple_ms: float = hw.LSI11_RESTRICT_TUPLE_MS
    join_pair_ms: float = hw.LSI11_JOIN_PAIR_MS
    hash_tuple_ms: float = hw.LSI11_HASH_TUPLE_MS
    #: Control bytes per instruction/result packet (the paper's ``c``).
    packet_overhead_bytes: int = 100
    #: Fixed dispatch latency per packet (controller + switch setup).
    dispatch_ms: float = 0.5
    #: Latency to stage a page into/out of controller local memory.
    ic_latency_ms: float = 0.2
    ccd: hw.CcdCacheModel = hw.INTEL_2314_CCD
    disk: hw.DiskModel = hw.IBM_3330

    # -- processor side ------------------------------------------------------

    def proc_read_ms(self, nbytes: int) -> float:
        """Processor time to pull ``nbytes`` into its local memory."""
        return nbytes / self.proc_scan_rate

    def proc_write_ms(self, nbytes: int) -> float:
        """Processor time to push ``nbytes`` out of its local memory."""
        return nbytes / self.proc_scan_rate

    def restrict_cpu_ms(self, rows: int) -> float:
        """CPU time to apply a predicate to ``rows`` tuples."""
        return rows * self.restrict_tuple_ms

    def join_cpu_ms(self, outer_rows: int, inner_rows: int) -> float:
        """CPU time for a nested-loops page-pair step."""
        return outer_rows * inner_rows * self.join_pair_ms

    def project_cpu_ms(self, rows: int) -> float:
        """CPU time to cut and hash ``rows`` tuples for dedup."""
        return rows * self.hash_tuple_ms

    # -- cache / disk side -----------------------------------------------------

    def cache_port_ms(self, nbytes: int) -> float:
        """One CCD cache-port transaction of ``nbytes``."""
        return self.ccd.access_time_ms(nbytes)

    def disk_ms(self, nbytes: int, sequential: bool = False) -> float:
        """One mass-storage transfer of ``nbytes``."""
        return self.disk.access_time_ms(nbytes, sequential=sequential)

    # -- packets ----------------------------------------------------------------

    def packet_bytes(self, payload_bytes: int) -> int:
        """Wire size of a packet carrying ``payload_bytes``."""
        return payload_bytes + self.packet_overhead_bytes
