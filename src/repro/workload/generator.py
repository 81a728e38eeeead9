"""Deterministic synthetic database: 15 relations, ~5.5 megabytes.

Section 3.2's experiment uses "a relational database containing 15
relations with a combined size of 5.5 megabytes".  Section 3.3's analysis
assumes 100-byte tuples.  We honor both: every relation shares a 96-byte
record format (the closest multiple the fixed-width schema yields to the
paper's "100 bytes") and the 15 relation sizes are weighted so page bytes
total ~5.5 MB at ``scale=1.0``.

Schema of every benchmark relation::

    key  INT     -- unique within the relation (0..rows-1, shuffled)
    a    INT     -- Zipf-skewed foreign-key-like attribute
    b    INT     -- uniform join attribute over a shared domain
    v    FLOAT   -- uniform measure in [0, 1000)
    pad  CHAR(64)-- filler so the record is ~100 bytes, per Section 3.3

Joins in the benchmark queries run on ``b`` (shared domain across all
relations) so every pair of relations joins meaningfully; restricts run on
``key`` ranges so selectivity is exact and controllable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro import hw
from repro.errors import WorkloadError
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.sim.random import RandomStreams
from repro.workload.zipf import ZipfGenerator, shuffled_range, weighted_partition

#: The shared record layout of every benchmark relation (96 bytes).
BENCHMARK_SCHEMA = Schema.build(
    ("key", DataType.INT),
    ("a", DataType.INT),
    ("b", DataType.INT),
    ("v", DataType.FLOAT),
    ("pad", DataType.CHAR, 64),
)

#: Domain of the shared join attribute ``b``.  An equijoin of relations with
#: n and m rows then yields ~ n*m / B_DOMAIN result rows.
B_DOMAIN = 1000

#: Relative sizes of the 15 relations.  The paper gives only the total; we
#: use a mild spread (factor ~6 between smallest and largest) so queries mix
#: small and large operands.
_RELATION_WEIGHTS = [6, 5, 5, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1]


@dataclass(frozen=True)
class RelationSpec:
    """Planned shape of one benchmark relation."""

    name: str
    rows: int

    @property
    def data_bytes(self) -> int:
        """Bytes of packed records (excluding page headers/padding)."""
        return self.rows * BENCHMARK_SCHEMA.record_width


@dataclass
class BenchmarkDatabase:
    """The generated database: a catalog plus its generation parameters."""

    catalog: Catalog
    specs: List[RelationSpec]
    scale: float
    seed: int
    page_bytes: int

    @property
    def relation_names(self) -> List[str]:
        """Names of the 15 benchmark relations in size order."""
        return [s.name for s in self.specs]

    @property
    def total_bytes(self) -> int:
        """Combined stored size (page-granular) of the database."""
        return self.catalog.total_bytes


def benchmark_relation_specs(scale: float = 1.0) -> List[RelationSpec]:
    """Row counts for the 15 relations at ``scale`` (1.0 = paper's 5.5 MB).

    The target is 5.5 MB of *useful record bytes*; stored page bytes land
    slightly above that depending on the page size chosen at generation.
    """
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    total_rows = int(scale * hw.BENCHMARK_DB_BYTES / BENCHMARK_SCHEMA.record_width)
    if total_rows < hw.BENCHMARK_NUM_RELATIONS:
        raise WorkloadError(
            f"scale {scale} yields {total_rows} rows, fewer than "
            f"{hw.BENCHMARK_NUM_RELATIONS} relations"
        )
    rows = weighted_partition(total_rows, _RELATION_WEIGHTS)
    return [
        RelationSpec(name=f"rel{i + 1:02d}", rows=r)
        for i, r in enumerate(rows)
    ]


def _generate_relation(
    spec: RelationSpec, rng: random.Random, page_bytes: int, b_domain: int
) -> Relation:
    zipf = ZipfGenerator(max(1, spec.rows // 10), s=1.0)
    keys = shuffled_range(rng, spec.rows)
    draw = zipf.draw
    randrange = rng.randrange
    uniform = rng.uniform
    rows = [
        (
            key,
            draw(rng),
            randrange(b_domain),
            uniform(0.0, 1000.0),
            "",  # pad column stays empty; its 64 bytes are layout, not data
        )
        for key in keys
    ]
    # The rows are valid by construction (ints, a float, an empty pad), so
    # packing skips the per-row type checks — generation runs once per
    # sweep point and used to dominate quick-bench profiles.
    return Relation.from_rows(
        spec.name, BENCHMARK_SCHEMA, rows, page_bytes=page_bytes, validated=True
    )


def generate_benchmark_database(
    scale: float = 1.0,
    seed: int = 1979,
    page_bytes: int = 4096,
    b_domain: int = B_DOMAIN,
) -> BenchmarkDatabase:
    """Generate the 15-relation benchmark database.

    ``scale`` shrinks or grows the database proportionally (tests use small
    scales; the headline experiments use the documented defaults), and
    ``b_domain`` shrinks the join-attribute domain so joins stay non-empty
    at tiny scales.  The result is bit-for-bit deterministic in
    ``(scale, seed, page_bytes, b_domain)``.
    """
    if b_domain < 1:
        raise WorkloadError(f"b_domain must be >= 1, got {b_domain}")
    specs = benchmark_relation_specs(scale)
    catalog = Catalog()
    # One independent RNG stream per relation so adding a relation never
    # perturbs the others; RandomStreams' crc32 mixing keeps the stream
    # seed stable across processes (str.__hash__ is randomized per run).
    streams = RandomStreams(seed)
    for spec in specs:
        rng = streams.stream(spec.name)
        catalog.register(_generate_relation(spec, rng, page_bytes, b_domain))
    return BenchmarkDatabase(
        catalog=catalog, specs=specs, scale=scale, seed=seed, page_bytes=page_bytes
    )
