"""Device service times: what each operator step costs in simulated time.

The simulated processors compute real answers with the shared page
kernels of :mod:`repro.relational.kernels`; this module only charges
time for that work.  Service times follow the nested-loops cost the paper
assumes (o_rows * i_rows pair comparisons for a join page pair), with
constants from :mod:`repro.hw`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import hw


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
