"""The compiled row codec against the generic one it replaced.

``Schema.validate_row``/``pack``/``pack_many`` take a fast path for rows
whose values have exactly the compiled types and fall back to a generic
per-value check otherwise.  ``reference_validate_row`` and
``reference_pack`` below are the generic codec as it stood before the fast
path existed; the compiled codec must make the same accept/reject
decision, raise the same error and produce the same bytes on every row,
except that it also rejects CHAR values ending in NUL (which the NUL
padding would strip on read).
"""

import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SchemaError
from repro.relational.page import Page
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema

MIXED = Schema.build(
    ("k", DataType.INT),
    ("s", DataType.CHAR, 6),
    ("v", DataType.FLOAT),
    ("t", DataType.CHAR, 3),
)
NUMERIC = Schema.build(("k", DataType.INT), ("v", DataType.FLOAT))


def reference_validate_row(schema, row):
    if len(row) != schema.arity:
        raise SchemaError(
            f"row arity {len(row)} != schema arity {schema.arity} ({schema.names})"
        )
    for value, attr_ in zip(row, schema.attributes):
        if attr_.dtype is DataType.INT:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"attribute {attr_.name!r} expects int, got {value!r}")
        elif attr_.dtype is DataType.FLOAT:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"attribute {attr_.name!r} expects float, got {value!r}")
        else:
            if not isinstance(value, str):
                raise SchemaError(f"attribute {attr_.name!r} expects str, got {value!r}")
            if len(value.encode("utf-8")) > attr_.width:
                raise SchemaError(
                    f"value {value!r} overflows CHAR({attr_.width}) attribute {attr_.name!r}"
                )


def reference_pack(schema, row):
    reference_validate_row(schema, row)
    encoded = []
    for value, attr_ in zip(row, schema.attributes):
        if attr_.dtype is DataType.CHAR:
            encoded.append(value.encode("utf-8"))
        elif attr_.dtype is DataType.FLOAT:
            encoded.append(float(value))
        else:
            encoded.append(value)
    return struct.Struct("<" + "".join(
        a.dtype.struct_code(a.width) for a in schema.attributes
    )).pack(*encoded)


class SubInt(int):
    pass


class SubFloat(float):
    pass


class SubStr(str):
    pass


#: Text around the CHAR widths: plain ASCII, non-ASCII whose UTF-8 form is
#: longer than the text, the same with NUL, then anything (lone surrogates
#: included).
texts = st.one_of(
    st.text("ab", max_size=8),
    st.text(st.sampled_from("aé€\U0001d11e"), max_size=8),
    st.text(st.sampled_from("a\x00é€\U0001d11e"), max_size=8),
    st.text(st.characters(blacklist_categories=()), max_size=8),
)
exact_values = {
    DataType.INT: st.integers(-(2**63), 2**63 - 1),
    DataType.FLOAT: st.floats(allow_nan=False),
    DataType.CHAR: texts,
}
other_values = {
    DataType.INT: st.one_of(
        st.integers(2**63, 2**64),  # out of the 64-bit range: struct refuses it
        st.booleans(),
        st.integers(-5, 5).map(SubInt),
    ),
    DataType.FLOAT: st.one_of(
        st.integers(-(2**40), 2**40),  # an int in a FLOAT slot is accepted
        st.integers(2**1024, 2**1030),  # ... unless float() overflows
        st.booleans(),
        st.floats(-1e6, 1e6).map(SubFloat),
    ),
    DataType.CHAR: texts.map(SubStr),
}
anything = st.one_of(*exact_values.values(), *other_values.values(), st.none())


def exact_rows_of(schema):
    """Rows whose values all have exactly the compiled types."""
    return st.tuples(*(exact_values[a.dtype] for a in schema.attributes))


def rows_of(schema):
    """Any row: mostly well typed, sometimes a subclass, a wrong type, a
    list, or the wrong arity."""
    values = st.tuples(*(
        st.one_of(exact_values[a.dtype], other_values[a.dtype], anything)
        for a in schema.attributes
    ))
    return st.one_of(
        exact_rows_of(schema),
        values,
        values.map(list),
        values.map(lambda row: row[:-1]),  # arity too small
        values.map(lambda row: row + (0,)),  # arity too large
    )


def outcome(fn, *args):
    """``("ok", result)`` or ``("raise", exception type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception type and message are compared
        return ("raise", type(exc), str(exc))


def ends_in_nul(schema, row):
    return len(row) == schema.arity and any(
        a.dtype is DataType.CHAR and isinstance(v, str) and v.endswith("\x00")
        for v, a in zip(row, schema.attributes)
    )


def assert_same(schema, row, expected, got):
    if ends_in_nul(schema, row):
        # The one deliberate difference: trailing NUL is now rejected.
        assert got[0] == "raise"
        if expected[0] == "ok":
            assert got[1] is SchemaError
    else:
        assert got == expected


@pytest.mark.parametrize("schema", [MIXED, NUMERIC], ids=["mixed", "numeric"])
class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_validate_row_matches_reference(self, schema, data):
        row = data.draw(rows_of(schema))
        expected = outcome(reference_validate_row, schema, row)
        assert_same(schema, row, expected, outcome(schema.validate_row, row))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_pack_matches_reference(self, schema, data):
        row = data.draw(rows_of(schema))
        expected = outcome(reference_pack, schema, row)
        assert_same(schema, row, expected, outcome(schema.pack, row))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_pack_many_matches_reference(self, schema, data):
        rows = data.draw(st.one_of(
            st.lists(exact_rows_of(schema), max_size=6),
            st.lists(rows_of(schema), max_size=6),
        ))
        expected = outcome(lambda: b"".join(reference_pack(schema, r) for r in rows))
        got = outcome(schema.pack_many, rows)
        if any(ends_in_nul(schema, r) for r in rows):
            assert got[0] == "raise"
            if expected[0] == "ok":
                assert got[1] is SchemaError
        else:
            assert got == expected
        if got[0] == "ok":
            assert outcome(schema.validate_rows, rows) == ("ok", None)
        elif got[1] is SchemaError:
            assert outcome(schema.validate_rows, rows)[1] is SchemaError


def test_fast_batch_matches_per_row_records():
    rows = [(i, "x" * (i % 7), i * 0.5, "ab"[: i % 3]) for i in range(50)]
    assert MIXED.pack_many(rows) == b"".join(reference_pack(MIXED, r) for r in rows)


@pytest.mark.parametrize("value", ["a\x00", "\x00", "é\x00", "\x00\x00\x00"])
def test_trailing_nul_rejected(value):
    schema = Schema.build(("k", DataType.INT), ("s", DataType.CHAR, 6))
    with pytest.raises(SchemaError, match="ends in NUL"):
        schema.validate_row((1, value))
    with pytest.raises(SchemaError, match="ends in NUL"):
        schema.pack((1, value))
    with pytest.raises(SchemaError, match="ends in NUL"):
        schema.pack_many([(0, "ok"), (1, value)])
    # The fallback path (a subclass) applies the same rule.
    with pytest.raises(SchemaError, match="ends in NUL"):
        schema.validate_row((SubInt(1), value))


def test_interior_nul_roundtrips():
    schema = Schema.build(("k", DataType.INT), ("s", DataType.CHAR, 6))
    row = (1, "a\x00b")
    assert schema.unpack(schema.pack(row)) == row
    assert schema.unpack_many(schema.pack_many([row, (2, "c")])) == [row, (2, "c")]


def test_page_to_bytes_still_checks_unchecked_rows():
    page = Page(NUMERIC, 256)
    page.extend_unchecked([(1, 1.0), ("bad", 2.0)])
    with pytest.raises(SchemaError):
        page.to_bytes()


# ------------------------------------------------------------ insert_many


PAIR = Schema.build(("k", DataType.INT), ("g", DataType.INT))


def _partly_full(name):
    relation = Relation(name, PAIR, page_bytes=64)  # 3 records a page
    for i in range(4):
        relation.insert((i, i))
    return relation


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 20])
def test_insert_many_matches_row_by_row_boundaries(count):
    rows = [(100 + i, i % 5) for i in range(count)]
    bulk, single = _partly_full("bulk"), _partly_full("single")
    assert bulk.insert_many(rows) == count
    for row in rows:
        single.insert(row)
    assert [p.row_count for p in bulk.pages] == [p.row_count for p in single.pages]
    assert [p.to_bytes() for p in bulk.pages] == [p.to_bytes() for p in single.pages]
    assert [p.dirty for p in bulk.pages] == [p.dirty for p in single.pages]


def test_insert_many_takes_lists_and_generators():
    relation = Relation("r", PAIR, page_bytes=64)
    relation.insert_many([[1, 2], [3, 4]])
    relation.insert_many((i, i) for i in range(5, 8))
    assert list(relation.rows()) == [(1, 2), (3, 4), (5, 5), (6, 6), (7, 7)]
    assert all(type(row) is tuple for row in relation.rows())


@pytest.mark.parametrize("bad_at", [0, 2, 6])
def test_insert_many_bad_row_leaves_relation_unchanged(bad_at):
    relation = _partly_full("r")
    before = [list(p.rows()) for p in relation.pages]
    cached = relation.packed_pages(128)
    rows = [(100 + i, i) for i in range(7)]
    rows[bad_at] = (100, "not an int")
    with pytest.raises(SchemaError, match="expects int"):
        relation.insert_many(rows)
    assert [list(p.rows()) for p in relation.pages] == before
    assert relation.packed_pages(128) is cached
