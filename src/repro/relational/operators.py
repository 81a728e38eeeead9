"""Reference relational algebra operators — the correctness oracle.

Section 2.1 names the query-tree operators: restrict, join, append, delete
(and Section 5 discusses project, i.e. "elimination of unwanted attributes
and duplicate tuples").  This module implements them — plus the usual set
operators — directly over :class:`~repro.relational.relation.Relation`
values, with three join algorithms matching the Blasgen–Eswaran study the
paper cites [5]:

* ``nested_loops_join`` — O(n*m); "appears to be the best algorithm for
  execution of the join operator on multiple processors"
* ``sort_merge_join`` — O(n log n) for equijoins
* ``hash_join`` — the modern equijoin baseline

Both machine simulators are validated against these functions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import PredicateError, SchemaError
from repro.relational.predicate import JoinCondition, Predicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sorting import sort_relation


def _result_page_bytes(*relations: Relation) -> int:
    """Result pages inherit the first operand's page size."""
    return relations[0].page_bytes


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


def restrict(relation: Relation, predicate: Predicate, name: Optional[str] = None) -> Relation:
    """Rows of ``relation`` satisfying ``predicate`` (selection).

    The paper's "restrict" operator; keeps the full schema.
    """
    predicate.validate(relation.schema)
    test = predicate.compile(relation.schema)
    out = Relation(
        name or f"restrict({relation.name})",
        relation.schema,
        page_bytes=_result_page_bytes(relation),
    )
    out.insert_many(row for row in relation.rows() if test(row))
    return out


def project(
    relation: Relation,
    attributes: Sequence[str],
    name: Optional[str] = None,
    eliminate_duplicates: bool = True,
) -> Relation:
    """Keep only ``attributes``, optionally eliminating duplicate tuples.

    Section 5 defines project as "elimination of unwanted attributes and
    duplicate tuples"; duplicate elimination can be disabled to model the
    cheap attribute-cut phase separately from the expensive dedup phase.
    """
    out_schema = relation.schema.project(attributes)
    indices = [relation.schema.index_of(a) for a in attributes]
    out = Relation(
        name or f"project({relation.name})",
        out_schema,
        page_bytes=_result_page_bytes(relation),
    )
    if eliminate_duplicates:
        seen = set()
        for row in relation.rows():
            cut = tuple(row[i] for i in indices)
            if cut not in seen:
                seen.add(cut)
                out.insert(cut)
    else:
        out.insert_many(tuple(row[i] for i in indices) for row in relation.rows())
    return out


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _join_output(outer: Relation, inner: Relation, name: Optional[str]) -> Relation:
    schema = outer.schema.concat_unique(inner.schema)
    return Relation(
        name or f"join({outer.name},{inner.name})",
        schema,
        page_bytes=_result_page_bytes(outer, inner),
    )


def nested_loops_join(
    outer: Relation,
    inner: Relation,
    condition: JoinCondition,
    name: Optional[str] = None,
) -> Relation:
    """The paper's preferred parallel join: every outer row against every
    inner row, emitting concatenated rows where the condition holds."""
    condition.validate(outer.schema, inner.schema)
    test = condition.compile(outer.schema, inner.schema)
    out = _join_output(outer, inner, name)
    inner_rows = list(inner.rows())
    for orow in outer.rows():
        for irow in inner_rows:
            if test(orow, irow):
                out.insert(orow + irow)
    return out


def sort_merge_join(
    outer: Relation,
    inner: Relation,
    condition: JoinCondition,
    name: Optional[str] = None,
) -> Relation:
    """Equijoin by sorting both inputs on the join attributes and merging.

    One of the Blasgen–Eswaran uniprocessor algorithms [5]; O(n log n) but
    "difficult to implement [in parallel] and at various points severely
    constrains the amount of parallelism" — we provide it as the baseline.
    """
    if not condition.is_equijoin:
        raise PredicateError("sort-merge join requires an equality condition")
    condition.validate(outer.schema, inner.schema)
    oi = outer.schema.index_of(condition.outer_attr)
    ii = inner.schema.index_of(condition.inner_attr)
    out = _join_output(outer, inner, name)

    # NaN keys match nothing and have no place in a sort order.
    orows = sorted((r for r in outer.rows() if r[oi] == r[oi]), key=lambda r: r[oi])
    irows = sorted((r for r in inner.rows() if r[ii] == r[ii]), key=lambda r: r[ii])
    i = j = 0
    while i < len(orows) and j < len(irows):
        okey, ikey = orows[i][oi], irows[j][ii]
        if okey < ikey:
            i += 1
        elif okey > ikey:
            j += 1
        else:
            # Emit the full cross product of the equal-key groups.
            j_end = j
            while j_end < len(irows) and irows[j_end][ii] == okey:
                j_end += 1
            i_end = i
            while i_end < len(orows) and orows[i_end][oi] == okey:
                i_end += 1
            for a in range(i, i_end):
                for b in range(j, j_end):
                    out.insert(orows[a] + irows[b])
            i, j = i_end, j_end
    return out


def hash_join(
    outer: Relation,
    inner: Relation,
    condition: JoinCondition,
    name: Optional[str] = None,
) -> Relation:
    """Equijoin by hashing the inner relation (the modern baseline)."""
    if not condition.is_equijoin:
        raise PredicateError("hash join requires an equality condition")
    condition.validate(outer.schema, inner.schema)
    oi = outer.schema.index_of(condition.outer_attr)
    ii = inner.schema.index_of(condition.inner_attr)
    out = _join_output(outer, inner, name)

    table: dict = {}
    for irow in inner.rows():
        key = irow[ii]
        if key == key:  # NaN matches nothing, not even the same object
            table.setdefault(key, []).append(irow)
    for orow in outer.rows():
        for irow in table.get(orow[oi], ()):
            out.insert(orow + irow)
    return out


def join(
    outer: Relation,
    inner: Relation,
    condition: JoinCondition,
    name: Optional[str] = None,
    algorithm: str = "nested_loops",
) -> Relation:
    """Dispatch to a join algorithm by name.

    ``algorithm`` is one of ``nested_loops``, ``sort_merge``, ``hash``.
    """
    algorithms: dict[str, Callable] = {
        "nested_loops": nested_loops_join,
        "sort_merge": sort_merge_join,
        "hash": hash_join,
    }
    try:
        fn = algorithms[algorithm]
    except KeyError:
        raise PredicateError(
            f"unknown join algorithm {algorithm!r}; choose from {sorted(algorithms)}"
        ) from None
    return fn(outer, inner, condition, name)


def semijoin(
    outer: Relation,
    inner: Relation,
    condition: JoinCondition,
    name: Optional[str] = None,
) -> Relation:
    """Outer rows that join with at least one inner row (outer schema kept)."""
    condition.validate(outer.schema, inner.schema)
    test = condition.compile(outer.schema, inner.schema)
    inner_rows = list(inner.rows())
    out = Relation(
        name or f"semijoin({outer.name},{inner.name})",
        outer.schema,
        page_bytes=_result_page_bytes(outer),
    )
    out.insert_many(
        orow for orow in outer.rows() if any(test(orow, irow) for irow in inner_rows)
    )
    return out


# ---------------------------------------------------------------------------
# Update operators (Section 2.1 names append and delete)
# ---------------------------------------------------------------------------


def append(target: Relation, source: Relation, name: Optional[str] = None) -> Relation:
    """A new relation holding ``target`` followed by ``source`` rows.

    Schemas must be positionally compatible (same types and widths).
    """
    _check_union_compatible(target.schema, source.schema)
    out = Relation(
        name or target.name,
        target.schema,
        page_bytes=_result_page_bytes(target),
    )
    out.insert_many(target.rows())
    out.insert_many(source.rows())
    return out


def delete(target: Relation, predicate: Predicate, name: Optional[str] = None) -> Relation:
    """A new relation holding the rows of ``target`` NOT matching ``predicate``."""
    predicate.validate(target.schema)
    test = predicate.compile(target.schema)
    out = Relation(
        name or target.name,
        target.schema,
        page_bytes=_result_page_bytes(target),
    )
    out.insert_many(row for row in target.rows() if not test(row))
    return out


def update(
    target: Relation,
    predicate: Predicate,
    set_attr: str,
    delta,
    name: Optional[str] = None,
) -> Relation:
    """A new relation with ``set_attr += delta`` on rows matching ``predicate``.

    Non-matching rows pass through unchanged, so the result is the whole
    new content of the target — the same contract the machines' update
    kernels honor.
    """
    predicate.validate(target.schema)
    test = predicate.compile(target.schema)
    index = target.schema.index_of(set_attr)
    out = Relation(
        name or target.name,
        target.schema,
        page_bytes=_result_page_bytes(target),
    )
    out.insert_many(
        row[:index] + (row[index] + delta,) + row[index + 1 :] if test(row) else row
        for row in target.rows()
    )
    return out


# ---------------------------------------------------------------------------
# Set operators
# ---------------------------------------------------------------------------


def _check_union_compatible(a: Schema, b: Schema) -> None:
    if a.arity != b.arity:
        raise SchemaError(f"arity mismatch: {a.names} vs {b.names}")
    for x, y in zip(a.attributes, b.attributes):
        if x.dtype is not y.dtype or x.byte_width != y.byte_width:
            raise SchemaError(
                f"attribute type mismatch: {x.name}:{x.dtype} vs {y.name}:{y.dtype}"
            )


def union(a: Relation, b: Relation, name: Optional[str] = None) -> Relation:
    """Set union (duplicates eliminated)."""
    _check_union_compatible(a.schema, b.schema)
    out = Relation(name or f"union({a.name},{b.name})", a.schema, page_bytes=a.page_bytes)
    seen = set()
    for row in list(a.rows()) + list(b.rows()):
        if row not in seen:
            seen.add(row)
            out.insert(row)
    return out


def difference(a: Relation, b: Relation, name: Optional[str] = None) -> Relation:
    """Set difference ``a - b`` (duplicates in ``a`` eliminated)."""
    _check_union_compatible(a.schema, b.schema)
    drop = set(b.rows())
    out = Relation(name or f"diff({a.name},{b.name})", a.schema, page_bytes=a.page_bytes)
    seen = set()
    for row in a.rows():
        if row not in drop and row not in seen:
            seen.add(row)
            out.insert(row)
    return out


def intersect(a: Relation, b: Relation, name: Optional[str] = None) -> Relation:
    """Set intersection (duplicates eliminated)."""
    _check_union_compatible(a.schema, b.schema)
    keep = set(b.rows())
    out = Relation(name or f"intersect({a.name},{b.name})", a.schema, page_bytes=a.page_bytes)
    seen = set()
    for row in a.rows():
        if row in keep and row not in seen:
            seen.add(row)
            out.insert(row)
    return out


def distinct(relation: Relation, name: Optional[str] = None) -> Relation:
    """Duplicate elimination keeping the full schema."""
    return project(relation, list(relation.schema.names), name=name)


def sort(relation: Relation, by: Sequence[str], name: Optional[str] = None) -> Relation:
    """Rows ordered by the ``by`` attributes (external merge sort)."""
    return sort_relation(relation, by, name=name)
