"""Exactness of the relational fast paths and the identity gate.

Every optimization in this file's scope (unchecked bulk appends, packed
page memoization, the validated packing path) is only legal because it
is *observably identical* to the slow path it replaces — these tests pin
that equivalence.
"""

import pytest

from repro.errors import PageError
from repro.relational.page import Page, page_capacity, pack_rows_into_pages
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema

SCHEMA = Schema.build(("k", DataType.INT), ("v", DataType.FLOAT))


def _rows(n):
    return [(i, float(i) * 0.5) for i in range(n)]


# ------------------------------------------------------------ page fast paths


def test_page_capacity_matches_built_page():
    for page_bytes in (64, 512, 4096):
        assert page_capacity(SCHEMA, page_bytes) == Page(SCHEMA, page_bytes).capacity


def test_extend_unchecked_matches_append():
    a = Page(SCHEMA, 512)
    b = Page(SCHEMA, 512)
    rows = _rows(10)
    for row in rows:
        a.append(row)
    b.extend_unchecked(rows)
    assert list(a.rows()) == list(b.rows())
    assert a.to_bytes() == b.to_bytes()


def test_extend_unchecked_checks_overflow():
    page = Page(SCHEMA, 128)
    with pytest.raises(PageError):
        page.extend_unchecked(_rows(page.capacity + 1))


def test_pack_validated_has_identical_page_boundaries():
    rows = _rows(137)
    checked = pack_rows_into_pages(SCHEMA, rows, 256)
    unchecked = pack_rows_into_pages(SCHEMA, rows, 256, validated=True)
    assert [p.row_count for p in checked] == [p.row_count for p in unchecked]
    assert [p.to_bytes() for p in checked] == [p.to_bytes() for p in unchecked]


def test_from_rows_validated_matches_checked():
    rows = _rows(50)
    a = Relation.from_rows("a", SCHEMA, rows, page_bytes=256)
    b = Relation.from_rows("b", SCHEMA, rows, page_bytes=256, validated=True)
    assert a.same_rows_as(b)
    assert [p.row_count for p in a.pages] == [p.row_count for p in b.pages]


# ------------------------------------------------------------ packed_pages memo


def test_packed_pages_is_memoized_per_page_size():
    rel = Relation.from_rows("r", SCHEMA, _rows(40), page_bytes=256)
    first = rel.packed_pages(128)
    assert rel.packed_pages(128) is first  # shared image, no repacking
    assert rel.packed_pages(256) is not first  # keyed on page size


def test_packed_pages_invalidated_by_mutators():
    rel = Relation.from_rows("r", SCHEMA, _rows(40), page_bytes=256)
    before = rel.packed_pages(128)

    rel.insert((40, 20.0))
    after_insert = rel.packed_pages(128)
    assert after_insert is not before
    assert sum(p.row_count for p in after_insert) == 41

    page = Page(SCHEMA, 256)
    page.append((41, 20.5))
    rel.append_page(page)
    assert rel.packed_pages(128) is not after_insert

    cached = rel.packed_pages(128)
    rel.compact()
    assert rel.packed_pages(128) is not cached


def test_packed_pages_content_matches_fresh_pack():
    rel = Relation.from_rows("r", SCHEMA, _rows(33), page_bytes=256)
    fresh = pack_rows_into_pages(SCHEMA, list(rel.rows()), 128)
    memoized = rel.packed_pages(128)
    assert [p.to_bytes() for p in memoized] == [p.to_bytes() for p in fresh]


# ------------------------------------------------------------ generator bulk path


def test_generator_bulk_load_matches_seeded_expectation():
    # The generator switched from per-row insert to the validated bulk
    # packer; the database must stay bit-for-bit what the seed produced.
    from repro.workload.generator import generate_benchmark_database

    db1 = generate_benchmark_database(scale=0.02, seed=1979)
    db2 = generate_benchmark_database(scale=0.02, seed=1979)
    for name in db1.relation_names:
        r1 = db1.catalog.get(name)
        r2 = db2.catalog.get(name)
        assert [p.to_bytes() for p in r1.pages] == [p.to_bytes() for p in r2.pages]
    # Rows are dense: every page but the last is full.
    rel = db1.catalog.get(db1.relation_names[0])
    assert all(p.is_full for p in rel.pages[:-1])


# ------------------------------------------------------------- identity gate


def test_identity_rejects_unknown_experiment():
    from repro.check.identity import render_experiment
    from repro.errors import CheckError

    with pytest.raises(CheckError):
        render_experiment("figure_9_9")
