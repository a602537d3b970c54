"""Tests for the dense cache-key id space."""

import concurrent.futures
import multiprocessing

import pytest

import repro.oodb.keys as keys_module
from repro.errors import SchemaError
from repro.oodb.database import Database, build_default_database
from repro.oodb.keys import KeySpace
from repro.oodb.objects import DBObject, OID, oid_sort_key
from repro.oodb.schema import AttributeDef, ClassDef, Schema


def two_class_database():
    """Classes declared out of name order, with a gap in the numbers."""
    schema = Schema(
        [
            ClassDef("Zone", [AttributeDef("z1", 16), AttributeDef("z0", 8)]),
            ClassDef("Alpha", [AttributeDef("b", 32)]),
        ]
    )
    database = Database(schema)
    for class_name, numbers in (("Zone", (0, 1, 3)), ("Alpha", (0, 1))):
        class_def = schema.class_def(class_name)
        for number in numbers:
            values = {name: 0 for name in class_def.attribute_names}
            database.add(DBObject(OID(class_name, number), class_def, values))
    return database


def every_key(database):
    for oid in database.oids():
        class_def = database.schema.class_def(oid.class_name)
        yield (oid, None)
        for attribute in class_def.attribute_names:
            yield (oid, attribute)


def default_ids(count):
    """Ids of a few keys of a freshly built default database."""
    keys = build_default_database(count).key_space
    return [
        keys.key_id(OID("Root", number), attribute)
        for number in (0, 1, count - 1)
        for attribute in (None, "a0", "r2")
    ]


class TestLayout:
    def test_ids_follow_the_arithmetic(self):
        keys = build_default_database(10).key_space
        # One class, 12 attributes: stride 13, slot 0 = whole object.
        assert keys.key_id(OID("Root", 0), None) == 0
        assert keys.key_id(OID("Root", 0), "a0") == 1
        assert keys.key_id(OID("Root", 2), "r2") == 2 * 13 + 12
        assert keys.key_id(OID("Root", 4), None) == 52
        assert keys.ids(OID("Root", 4), "a3") == (52, 56)
        assert len(keys) == 130

    @pytest.mark.parametrize("build", [two_class_database,
                                       lambda: build_default_database(50)])
    def test_round_trip(self, build):
        database = build()
        keys = database.key_space
        for key in every_key(database):
            assert keys.decode(keys.key_id(*key)) == key

    @pytest.mark.parametrize("build", [two_class_database,
                                       lambda: build_default_database(50)])
    def test_ids_sort_in_oid_order(self, build):
        database = build()
        keys = database.key_space
        ids = [keys.key_id(oid, None) for oid in database.oids()]
        assert ids == sorted(ids)
        by_id = sorted(every_key(database), key=lambda k: keys.key_id(*k))
        assert [oid for oid, __ in by_id] == sorted(
            (oid for oid, __ in by_id), key=oid_sort_key
        )

    def test_attribute_slots_follow_schema_order(self):
        keys = two_class_database().key_space
        first = keys.key_id(OID("Zone", 1), None)
        assert keys.key_id(OID("Zone", 1), "z1") == first + 1
        assert keys.key_id(OID("Zone", 1), "z0") == first + 2

    def test_sizes_table(self):
        database = two_class_database()
        keys = database.key_space
        assert keys.sizes[keys.key_id(OID("Zone", 3), "z1")] == 16
        assert keys.sizes[keys.key_id(OID("Zone", 3), "z0")] == 8
        assert keys.sizes[keys.key_id(OID("Alpha", 1), None)] == (
            database.schema.class_def("Alpha").object_size_bytes
        )

    def test_bad_keys_are_rejected(self):
        keys = build_default_database(10).key_space
        with pytest.raises(SchemaError):
            keys.key_id(OID("Root", 1), "no-such-attribute")
        with pytest.raises(SchemaError):
            keys.key_id(OID("Nope", 1), None)
        with pytest.raises(SchemaError):
            keys.decode(len(keys))
        with pytest.raises(SchemaError):
            keys.decode(-1)


class TestObjectKeyIds:
    def test_objects_know_their_ids(self):
        database = two_class_database()
        keys = database.key_space
        for oid, attribute in every_key(database):
            assert database.get(oid).key_id(attribute) == keys.key_id(
                oid, attribute
            )

    def test_unbound_object_and_bad_attribute(self):
        database = two_class_database()
        class_def = database.schema.class_def("Alpha")
        loose = DBObject(OID("Alpha", 7), class_def, {"b": 0})
        with pytest.raises(SchemaError):
            loose.key_id()
        keys = database.key_space  # binds every stored object
        stored = database.get(OID("Alpha", 1))
        assert stored.key_id() == keys.key_id(stored.oid, None)
        with pytest.raises(SchemaError):
            stored.key_id("nope")


class TestVersionTable:
    def test_writes_are_mirrored(self):
        database = build_default_database(10)
        keys = database.key_space
        versions = database.key_versions
        obj = database.get(OID("Root", 3))
        obj.write("a2", 7, now=1.0)
        obj.write("a2", 8, now=2.0)
        obj.write("r0", 1, now=3.0)
        assert versions[keys.key_id(obj.oid, None)] == obj.object_version == 3
        assert versions[keys.key_id(obj.oid, "a2")] == obj.version_of("a2")
        assert versions[keys.key_id(obj.oid, "r0")] == 1
        assert versions[keys.key_id(obj.oid, "a0")] == 0

    def test_rebuilt_after_add_keeps_versions(self):
        database = two_class_database()
        database.get(OID("Zone", 1)).write("z0", 5, now=1.0)
        old_space = database.key_space
        class_def = database.schema.class_def("Zone")
        database.add(DBObject(OID("Zone", 9), class_def, {"z0": 0, "z1": 0}))
        keys = database.key_space
        assert keys is not old_space
        assert database.key_versions[keys.key_id(OID("Zone", 1), "z0")] == 1
        assert keys.decode(keys.key_id(OID("Zone", 9), None)) == (
            OID("Zone", 9), None
        )


class TestNoSharedState:
    def test_no_module_level_tables(self):
        """Ids are arithmetic: the module holds no interning table that
        could grow, or survive, across the cells of a sweep."""
        for name, value in vars(keys_module).items():
            if name.startswith("__"):
                continue
            assert not isinstance(value, (dict, list, set)), name

    def test_each_database_owns_its_key_space(self):
        first = build_default_database(20)
        second = build_default_database(20)
        assert first.key_space is not second.key_space
        assert first.key_versions is not second.key_versions
        first.get(OID("Root", 1)).write("a0", 1, now=1.0)
        key_id = second.key_space.key_id(OID("Root", 1), "a0")
        assert second.key_versions[key_id] == 0

    def test_ids_identical_in_a_fresh_worker_process(self):
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=context
        ) as pool:
            remote = pool.submit(default_ids, 40).result(timeout=120)
        assert remote == default_ids(40)


def test_key_space_is_built_from_schema_and_oids():
    database = build_default_database(12)
    direct = KeySpace(database.schema, database.oids())
    assert len(direct) == len(database.key_space)
    assert direct.sizes == database.key_space.sizes
    with pytest.raises(SchemaError):
        KeySpace(database.schema, [OID("Root", -1)])
    with pytest.raises(SchemaError):
        KeySpace(database.schema, [OID("Elsewhere", 1)])


def test_decode_returns_the_database_oids():
    database = two_class_database()
    keys = database.key_space
    for oid in database.oids():
        decoded, __ = keys.decode(keys.key_id(oid, None))
        assert decoded is database.get(oid).oid
    # A number no object uses still decodes, to a fresh OID.
    assert keys.decode(keys.key_id(OID("Zone", 2), None)) == (OID("Zone", 2), None)
