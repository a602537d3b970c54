"""Dense integer ids for cache keys.

Every cacheable unit of a database — a whole object, ``(oid, None)``,
or one attribute of it, ``(oid, attribute)`` — gets an int computed by
arithmetic, with no per-key table::

    id = class base + number * (1 + attribute count) + slot

Slot 0 is the whole object and the attributes follow in schema order.
Classes are laid out in sorted name order, each spanning ``(max object
number + 1) * (1 + attribute count)`` ids, so ids sort by OID in
:func:`~repro.oodb.objects.oid_sort_key` order.  The hot path (client
probe and absorb, storage cache, replacement policies, server version
and refresh-time lookups) hashes these ints instead of ``(OID, str)``
tuples, and per-database tables become lists indexed by id.
:meth:`KeySpace.decode` maps an id back to its tuple for events, so
traces and invariant checkers see the same keys either way.

A key space is a pure function of the schema and the database's OIDs:
every process that builds the same database computes the same ids, and
there is no process-global state to leak between runs.  It keeps each
class's OIDs by number so that decoding returns the database's own OID
objects: sinks that hold decoded keys (the invariant checkers track
every resident key) share them instead of each holding a fresh copy.
"""

from __future__ import annotations

import bisect
import typing as t

from repro.errors import SchemaError
from repro.oodb.objects import OID
from repro.oodb.schema import Schema

#: A decoded cache key: ``(oid, attribute)``, ``attribute`` ``None`` for
#: a whole object.
DecodedKey = tuple[OID, "str | None"]


class ClassLayout:
    """Where one class's ids live: ``base + number * stride + slot``."""

    __slots__ = ("name", "base", "stride", "count", "slots", "names",
                 "oids")

    def __init__(
        self,
        name: str,
        base: int,
        attributes: t.Sequence[str],
        oids: list[OID | None],
    ) -> None:
        self.name = name
        self.base = base
        self.stride = 1 + len(attributes)
        #: The class's OIDs by number (``None`` for unused numbers).
        self.oids = oids
        #: Object numbers covered: ``0 .. count - 1``.
        self.count = len(oids)
        #: Attribute name -> slot (1-based; slot 0 is the whole object).
        self.slots = {name: slot for slot, name in enumerate(attributes, 1)}
        #: Slot -> attribute name (``None`` at slot 0).
        self.names: tuple[str | None, ...] = (None, *attributes)

    def __repr__(self) -> str:
        return (
            f"<ClassLayout {self.name!r} base={self.base} "
            f"stride={self.stride} count={self.count}>"
        )


class KeySpace:
    """The dense id layout of one database's cache keys."""

    __slots__ = ("_layouts", "_bases", "_by_name", "size", "sizes")

    def __init__(self, schema: Schema, oids: t.Iterable[OID]) -> None:
        by_class: dict[str, list[OID | None]] = {
            name: [] for name in schema.classes
        }
        for oid in oids:
            numbered = by_class.get(oid.class_name)
            if numbered is None:
                raise SchemaError(f"{oid} has a class outside the schema")
            if oid.number < 0:
                raise SchemaError(
                    f"{oid} has a negative number; key ids need >= 0"
                )
            if oid.number >= len(numbered):
                numbered.extend([None] * (oid.number + 1 - len(numbered)))
            numbered[oid.number] = oid
        layouts: list[ClassLayout] = []
        #: Stored size in bytes per id: the object size at slot 0, the
        #: attribute's size at every other slot.
        self.sizes: list[int] = []
        base = 0
        for name in sorted(schema.classes):
            class_def = schema.classes[name]
            layout = ClassLayout(
                name, base, class_def.attribute_names, by_class[name]
            )
            layouts.append(layout)
            row = [class_def.object_size_bytes] + [
                attribute.size_bytes
                for attribute in class_def.attributes.values()
            ]
            self.sizes.extend(row * layout.count)
            base += layout.count * layout.stride
        self._layouts = tuple(layouts)
        self._bases = [layout.base for layout in layouts]
        self._by_name = {layout.name: layout for layout in layouts}
        #: Number of ids (one past the largest).
        self.size = base

    def __repr__(self) -> str:
        return f"<KeySpace classes={len(self._layouts)} ids={self.size}>"

    def __len__(self) -> int:
        return self.size

    def layout(self, class_name: str) -> ClassLayout:
        """The id layout of ``class_name``."""
        try:
            return self._by_name[class_name]
        except KeyError:
            raise SchemaError(f"unknown class {class_name!r}") from None

    def key_id(self, oid: OID, attribute: str | None) -> int:
        """Id of ``(oid, attribute)``; ``attribute=None`` is the object."""
        layout = self.layout(oid.class_name)
        first = layout.base + oid.number * layout.stride
        if attribute is None:
            return first
        try:
            return first + layout.slots[attribute]
        except KeyError:
            raise SchemaError(
                f"class {oid.class_name!r} has no attribute {attribute!r}"
            ) from None

    def ids(self, oid: OID, attribute: str) -> tuple[int, int]:
        """``(object id, attribute id)`` of one attribute access."""
        layout = self.layout(oid.class_name)
        first = layout.base + oid.number * layout.stride
        try:
            return first, first + layout.slots[attribute]
        except KeyError:
            raise SchemaError(
                f"class {oid.class_name!r} has no attribute {attribute!r}"
            ) from None

    def decode(self, key_id: int) -> DecodedKey:
        """The ``(oid, attribute)`` key an id stands for."""
        if not 0 <= key_id < self.size:
            raise SchemaError(f"key id {key_id!r} is out of range")
        layout = self._layouts[bisect.bisect_right(self._bases, key_id) - 1]
        number, slot = divmod(key_id - layout.base, layout.stride)
        oid = layout.oids[number]
        if oid is None:
            oid = OID(layout.name, number)
        return oid, layout.names[slot]
