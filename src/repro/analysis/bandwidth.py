"""Section 3.3: arbitration-network traffic, tuple vs page granularity.

The paper's worked example, verbatim:

    Let the outer relation be A (n tuples) and the inner be B (m tuples),
    each tuple 100 bytes, c overhead bytes per instruction through the
    arbitration network.  Executing the join at tuple level moves

        n * m * (200 + c)  bytes.

    At page level with 1000-byte pages, A occupies n/10 pages and B m/10
    pages, so the traffic is

        n/10 * m/10 * (2000 + c)  =  n * m * (20 + c/100)  bytes.

    "Even if one ignores the overhead of sending a packet ... the
    bandwidth requirements of the page approach is 1/10 that of the tuple
    level approach", and a 10,000-byte page buys another order of
    magnitude.

This module generalizes the formulas to arbitrary tuple/page sizes and
reproduces the paper's specific ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import hw


@dataclass(frozen=True)
class GranularityTraffic:
    """Traffic of one nested-loops join at one granularity."""

    granularity: str
    page_bytes: int
    packets: int
    bytes_total: int


def join_traffic_tuple_level(
    n_outer: int,
    m_inner: int,
    tuple_bytes: int = hw.ANALYSIS_TUPLE_BYTES,
    overhead_bytes: int = 0,
) -> GranularityTraffic:
    """Arbitration traffic for a tuple-granularity nested-loops join.

    Every (outer, inner) tuple pair is one instruction: n*m packets of
    ``2*tuple_bytes + c`` bytes — the paper's ``n*m*(200+c)``.
    """
    packets = n_outer * m_inner
    per_packet = 2 * tuple_bytes + overhead_bytes
    return GranularityTraffic(
        granularity="tuple",
        page_bytes=tuple_bytes,
        packets=packets,
        bytes_total=packets * per_packet,
    )


def join_traffic_page_level(
    n_outer: int,
    m_inner: int,
    tuple_bytes: int = hw.ANALYSIS_TUPLE_BYTES,
    page_bytes: int = hw.ANALYSIS_PAGE_BYTES,
    overhead_bytes: int = 0,
) -> GranularityTraffic:
    """Arbitration traffic for a page-granularity nested-loops join.

    Every (outer page, inner page) pair is one instruction carrying two
    pages: (n/t)*(m/t) packets of ``2*page_bytes + c`` where t is tuples
    per page — the paper's ``n/10 * m/10 * (2000 + c)``.
    """
    tuples_per_page = max(1, page_bytes // tuple_bytes)
    outer_pages = -(-n_outer // tuples_per_page)  # ceil
    inner_pages = -(-m_inner // tuples_per_page)
    packets = outer_pages * inner_pages
    per_packet = 2 * page_bytes + overhead_bytes
    return GranularityTraffic(
        granularity="page",
        page_bytes=page_bytes,
        packets=packets,
        bytes_total=packets * per_packet,
    )


def traffic_ratio(
    n_outer: int,
    m_inner: int,
    tuple_bytes: int = hw.ANALYSIS_TUPLE_BYTES,
    page_bytes: int = hw.ANALYSIS_PAGE_BYTES,
    overhead_bytes: int = 0,
) -> float:
    """Tuple-level bytes divided by page-level bytes (the paper's ~10x)."""
    tup = join_traffic_tuple_level(n_outer, m_inner, tuple_bytes, overhead_bytes)
    page = join_traffic_page_level(n_outer, m_inner, tuple_bytes, page_bytes, overhead_bytes)
    if page.bytes_total == 0:
        return float("inf")
    return tup.bytes_total / page.bytes_total


def traffic_comparison(
    n_outer: int,
    m_inner: int,
    tuple_bytes: int = hw.ANALYSIS_TUPLE_BYTES,
    page_sizes: List[int] = (1_000, 10_000),
    overhead_values: List[int] = (0, 20, 100),
) -> List[dict]:
    """The Section 3.3 table: traffic per (page size, overhead) setting.

    Returns one row per combination plus the tuple-level row per overhead
    value; the experiment harness renders this as the E2 table.
    """
    rows: List[dict] = []
    for c in overhead_values:
        tup = join_traffic_tuple_level(n_outer, m_inner, tuple_bytes, c)
        rows.append(
            {
                "granularity": "tuple",
                "page_bytes": tuple_bytes,
                "overhead": c,
                "packets": tup.packets,
                "bytes": tup.bytes_total,
                "ratio_vs_tuple": 1.0,
            }
        )
        for page_bytes in page_sizes:
            page = join_traffic_page_level(n_outer, m_inner, tuple_bytes, page_bytes, c)
            rows.append(
                {
                    "granularity": "page",
                    "page_bytes": page_bytes,
                    "overhead": c,
                    "packets": page.packets,
                    "bytes": page.bytes_total,
                    "ratio_vs_tuple": (
                        tup.bytes_total / page.bytes_total if page.bytes_total else float("inf")
                    ),
                }
            )
    return rows
