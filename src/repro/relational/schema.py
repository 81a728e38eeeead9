"""Schemas with fixed-format tuples.

The paper's instruction packets carry a "Tuple Length & Format" field for
every operand (Figure 4.3), i.e. tuples are fixed-length records whose
layout is known to every instruction processor.  We model exactly that:
a :class:`Schema` is an ordered list of typed attributes that packs each row
into a fixed-width byte record with :mod:`struct`.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass, field
from itertools import chain, starmap
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import SchemaError

Row = tuple
"""A row is a plain Python tuple of values, positionally matching a schema."""


class DataType(enum.Enum):
    """Storable attribute types.

    ``INT`` is a 64-bit signed integer, ``FLOAT`` an IEEE double, and
    ``CHAR`` a fixed-width byte string (the width comes from the attribute).
    """

    INT = "int"
    FLOAT = "float"
    CHAR = "char"

    def struct_code(self, width: int) -> str:
        """The :mod:`struct` format code for one value of this type."""
        if self is DataType.INT:
            return "q"
        if self is DataType.FLOAT:
            return "d"
        return f"{width}s"

    def byte_width(self, declared_width: int) -> int:
        """Storage width in bytes for a value of this type."""
        if self is DataType.CHAR:
            return declared_width
        return 8


#: The exact Python type of a value on the fast path, per data type.
_EXACT_TYPE = {DataType.INT: int, DataType.FLOAT: float, DataType.CHAR: str}


@dataclass(frozen=True)
class Attribute:
    """One typed column of a schema.

    ``width`` is only meaningful for :attr:`DataType.CHAR` attributes, where
    it is the fixed byte width of the field; values shorter than the width
    are NUL-padded on disk and stripped on read.
    """

    name: str
    dtype: DataType
    width: int = 8

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"attribute name {self.name!r} is not a valid identifier")
        if self.dtype is DataType.CHAR and self.width <= 0:
            raise SchemaError(f"CHAR attribute {self.name!r} needs a positive width")

    @property
    def byte_width(self) -> int:
        """Storage width of this attribute in bytes."""
        return self.dtype.byte_width(self.width)


@dataclass(frozen=True)
class Schema:
    """An ordered, named collection of attributes with a fixed record format.

    >>> s = Schema.build(("id", DataType.INT), ("name", DataType.CHAR, 12))
    >>> s.record_width
    20
    >>> s.unpack(s.pack((7, "alice")))
    (7, 'alice')
    """

    attributes: tuple[Attribute, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        object.__setattr__(self, "_index", {a.name: i for i, a in enumerate(self.attributes)})
        fmt = "<" + "".join(a.dtype.struct_code(a.width) for a in self.attributes)
        object.__setattr__(self, "_struct", struct.Struct(fmt))
        # The compiled row checks (see "row packing" below).
        object.__setattr__(self, "_types", tuple(_EXACT_TYPE[a.dtype] for a in self.attributes))
        object.__setattr__(self, "_char_slots", tuple(
            (i, a.width) for i, a in enumerate(self.attributes) if a.dtype is DataType.CHAR
        ))
        object.__setattr__(self, "_float_slots", tuple(
            i for i, a in enumerate(self.attributes) if a.dtype is DataType.FLOAT
        ))

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, *specs: tuple) -> "Schema":
        """Build a schema from ``(name, dtype)`` or ``(name, dtype, width)``.

        This is the idiomatic constructor; passing :class:`Attribute`
        objects directly also works via the dataclass constructor.
        """
        attrs = []
        for spec in specs:
            if len(spec) == 2:
                name, dtype = spec
                attrs.append(Attribute(name, dtype))
            elif len(spec) == 3:
                name, dtype, width = spec
                attrs.append(Attribute(name, dtype, width))
            else:
                raise SchemaError(f"bad attribute spec: {spec!r}")
        return cls(tuple(attrs))

    # -- introspection ------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(a.name for a in self.attributes)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def record_width(self) -> int:
        """Width in bytes of one packed row."""
        return self._struct.size

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no attribute {name!r} in schema {self.names}") from None

    def attribute(self, name: str) -> Attribute:
        """The :class:`Attribute` named ``name``."""
        return self.attributes[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema keeping only ``names``, in the given order."""
        return Schema(tuple(self.attribute(n) for n in names))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """A new schema with attributes renamed per ``mapping``."""
        attrs = []
        for a in self.attributes:
            new = mapping.get(a.name, a.name)
            attrs.append(Attribute(new, a.dtype, a.width))
        return Schema(tuple(attrs))

    def concat(self, other: "Schema", *, prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Schema of the cross product ``self x other``.

        Colliding names must be disambiguated with the prefixes; a collision
        that survives prefixing raises :class:`SchemaError`.
        """
        attrs = [Attribute(prefix_self + a.name, a.dtype, a.width) for a in self.attributes]
        attrs += [Attribute(prefix_other + a.name, a.dtype, a.width) for a in other.attributes]
        return Schema(tuple(attrs))

    def concat_unique(self, other: "Schema") -> "Schema":
        """Schema of ``self x other`` keeping self's names unchanged.

        Colliding names from ``other`` get the first free numeric suffix
        (``b`` -> ``b_1`` -> ``b_2`` ...), so left-deep join chains always
        retain the outer relation's attribute names — the join attribute of
        a chain stays addressable at every level.
        """
        return _concat_unique(self, other)

    # -- row packing --------------------------------------------------------
    #
    # The row format is fixed per schema, so the per-value work is compiled
    # once in ``__post_init__``: a row whose values have exactly the
    # compiled types (``_types``) and whose CHAR values fit their slots
    # (``_char_slots``) is accepted without consulting the attributes.  Any
    # other row (a bool, an int in a FLOAT slot, a subclass, the wrong
    # arity, an overflowing CHAR value; in :meth:`validate_row` any
    # non-ASCII one) falls back to :meth:`_check_row`, which decides it
    # and words the error, so both paths accept the same rows.

    def validate_row(self, row: Row) -> None:
        """Raise :class:`SchemaError` unless ``row`` matches this schema."""
        if tuple(map(type, row)) == self._types:
            for i, width in self._char_slots:
                value = row[i]
                if len(value) > width or value[-1:] == "\x00" or not value.isascii():
                    break
            else:
                return
        self._check_row(row)

    def validate_rows(self, rows: Iterable[Row]) -> None:
        """:meth:`validate_row` for every row of a batch."""
        for row in rows:
            self.validate_row(row)

    def _check_row(self, row: Row) -> None:
        """The generic per-value check; words every :class:`SchemaError`."""
        if len(row) != self.arity:
            raise SchemaError(
                f"row arity {len(row)} != schema arity {self.arity} ({self.names})"
            )
        for value, attr_ in zip(row, self.attributes):
            if attr_.dtype is DataType.INT:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(f"attribute {attr_.name!r} expects int, got {value!r}")
            elif attr_.dtype is DataType.FLOAT:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SchemaError(f"attribute {attr_.name!r} expects float, got {value!r}")
            else:
                if not isinstance(value, str):
                    raise SchemaError(f"attribute {attr_.name!r} expects str, got {value!r}")
                try:
                    encoded = value.encode("utf-8")
                except UnicodeEncodeError:
                    raise SchemaError(f"value {value!r} of {attr_.name!r} is not UTF-8") from None
                if len(encoded) > attr_.width:
                    raise SchemaError(
                        f"value {value!r} overflows CHAR({attr_.width}) attribute {attr_.name!r}"
                    )
                if value.endswith("\x00"):
                    # The NUL padding is stripped on read, so the value
                    # would come back shorter than it went in.
                    raise SchemaError(
                        f"value {value!r} of CHAR attribute {attr_.name!r} ends in NUL"
                    )

    def _fast_values(self, rows: Sequence[Row]) -> Optional[list]:
        """Every value of ``rows`` in row-major order if the whole batch takes
        the fast path, else None (the batch goes row by row).

        :meth:`pack_many` runs the fast-path checks per column, over all
        rows at once.  A CHAR column holding a NUL or a non-ASCII value
        anywhere sends the batch row by row, where only a trailing NUL is
        rejected and the UTF-8 length is measured.
        """
        arity = len(self._types)
        if set(map(len, rows)) != {arity}:
            return None
        values = list(chain.from_iterable(rows))
        if list(map(type, values)) != list(self._types) * len(rows):
            return None
        for i, width in self._char_slots:
            column = values[i::arity]
            joined = "".join(column)
            if not joined.isascii() or "\x00" in joined or max(map(len, column)) > width:
                return None
        return values

    def pack(self, row: Row) -> bytes:
        """Pack ``row`` into its fixed-width byte record."""
        if tuple(map(type, row)) == self._types:
            values = list(row)
            try:
                for i, width in self._char_slots:
                    data = values[i].encode()
                    if len(data) > width or data[-1:] == b"\x00":
                        break
                    values[i] = data
                else:
                    return self._struct.pack(*values)
            except UnicodeEncodeError:
                pass  # a lone surrogate: the generic check rejects it
        self._check_row(row)
        values = list(row)
        for i in self._float_slots:
            values[i] = float(values[i])
        for i, _ in self._char_slots:
            values[i] = values[i].encode("utf-8")
        return self._struct.pack(*values)

    def unpack(self, record: bytes) -> Row:
        """Unpack one byte record back into a row tuple."""
        if len(record) != self.record_width:
            raise SchemaError(
                f"record is {len(record)} bytes, schema needs {self.record_width}"
            )
        values = []
        for raw, attr_ in zip(self._struct.unpack(record), self.attributes):
            if attr_.dtype is DataType.CHAR:
                values.append(raw.rstrip(b"\x00").decode("utf-8"))
            else:
                values.append(raw)
        return tuple(values)

    def pack_many(self, rows: Iterable[Row]) -> bytes:
        """Pack a run of rows into contiguous records."""
        rows = rows if isinstance(rows, list) else list(rows)
        values = self._fast_values(rows)
        if values is None:
            return b"".join(map(self.pack, rows))
        arity = len(self._types)
        for i, _ in self._char_slots:
            values[i::arity] = list(map(str.encode, values[i::arity]))
        return b"".join(starmap(self._struct.pack, zip(*[iter(values)] * arity)))

    def unpack_many(self, data: bytes) -> list[Row]:
        """Unpack contiguous records produced by :meth:`pack_many`."""
        width = self.record_width
        if len(data) % width:
            raise SchemaError(f"{len(data)} bytes is not a multiple of record width {width}")
        return [self.unpack(data[i : i + width]) for i in range(0, len(data), width)]


@functools.lru_cache(maxsize=1024)
def _concat_unique(a: Schema, b: Schema) -> Schema:
    """Cached body of :meth:`Schema.concat_unique`.

    Schemas are frozen and hash by value, and join nodes resolve their
    output schema on every dispatch — memoizing skips re-running the
    suffixing loop and, more importantly, recompiling the result's
    :mod:`struct` format each time.
    """
    taken = set(a.names)
    attrs = list(a.attributes)
    for attr_ in b.attributes:
        name = attr_.name
        suffix = 1
        while name in taken:
            name = f"{attr_.name}_{suffix}"
            suffix += 1
        taken.add(name)
        attrs.append(Attribute(name, attr_.dtype, attr_.width))
    return Schema(tuple(attrs))
