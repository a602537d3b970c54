"""Unit tests for wire-message size accounting."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.granularity import CachingGranularity
from repro.net.message import (
    ATTR_ID_BYTES,
    HEADER_BYTES,
    OID_BYTES,
    QUERY_DESCRIPTOR_BYTES,
    REFRESH_TIME_BYTES,
    ReplyItem,
    ReplyMessage,
    RequestMessage,
    UpdateValue,
)
from repro.oodb.objects import OID


def oid(n):
    return OID("Root", n)


class TestRequestSize:
    def test_minimal_request(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
        )
        assert request.size_bytes == (
            HEADER_BYTES + QUERY_DESCRIPTOR_BYTES + OID_BYTES + ATTR_ID_BYTES
        )

    def test_object_request_has_no_attribute_ids(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.OBJECT,
            needed={oid(1): (), oid(2): ()},
        )
        assert request.size_bytes == (
            HEADER_BYTES + QUERY_DESCRIPTOR_BYTES + 2 * OID_BYTES
        )

    def test_existent_entries_grouped_by_oid(self):
        base = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
        )
        with_existent = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
            existent=((oid(1), "a1"), (oid(1), "a2")),
        )
        # Same OID already on the wire: only two attribute ids added.
        assert (
            with_existent.size_bytes
            == base.size_bytes + 2 * ATTR_ID_BYTES
        )

    def test_existent_entry_for_new_oid_pays_oid(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
            existent=((oid(2), "a1"),),
        )
        expected = (
            HEADER_BYTES
            + QUERY_DESCRIPTOR_BYTES
            + OID_BYTES + ATTR_ID_BYTES  # needed
            + OID_BYTES + ATTR_ID_BYTES  # existent on a fresh oid
        )
        assert request.size_bytes == expected

    def test_object_granularity_existent_has_no_attr_id(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.OBJECT,
            needed={oid(1): ()},
            existent=((oid(2), None),),
        )
        assert request.size_bytes == (
            HEADER_BYTES + QUERY_DESCRIPTOR_BYTES + 2 * OID_BYTES
        )

    def test_update_payload_counted(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
            updates={oid(1): (UpdateValue("a0", 7, 80),)},
        )
        expected = (
            HEADER_BYTES
            + QUERY_DESCRIPTOR_BYTES
            + OID_BYTES + ATTR_ID_BYTES
            + ATTR_ID_BYTES + 80  # update rides the same oid
        )
        assert request.size_bytes == expected

    def test_pure_update_detected(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={},
            updates={oid(1): (UpdateValue("a0", 7, 80),)},
        )
        assert request.is_pure_update


class TestReplySize:
    def test_attribute_items(self):
        items = (
            ReplyItem(oid(1), "a0", 5, 0, 100.0, 80, key_id=14),
            ReplyItem(oid(1), "a1", 6, 0, 100.0, 80, key_id=15),
        )
        reply = ReplyMessage(client_id=0, query_id=1, items=items)
        expected = HEADER_BYTES + OID_BYTES + 2 * (
            ATTR_ID_BYTES + 80 + REFRESH_TIME_BYTES
        )
        assert reply.size_bytes == expected

    def test_object_item(self):
        item = ReplyItem(oid(1), None, {"a0": 5}, 0, math.inf, 960, key_id=13)
        reply = ReplyMessage(client_id=0, query_id=1, items=(item,))
        assert reply.size_bytes == (
            HEADER_BYTES + OID_BYTES + 960 + REFRESH_TIME_BYTES
        )

    def test_distinct_oids_counted_once(self):
        items = tuple(
            ReplyItem(oid(n), "a0", 1, 0, 1.0, 80, key_id=13 * n + 1)
            for n in (1, 1, 2)
        )
        reply = ReplyMessage(client_id=0, query_id=1, items=items)
        assert reply.size_bytes == HEADER_BYTES + 2 * OID_BYTES + 3 * (
            ATTR_ID_BYTES + 80 + REFRESH_TIME_BYTES
        )

    def test_expiry_deadline_finite(self):
        item = ReplyItem(oid(1), "a0", 5, 0, 100.0, 80, key_id=14)
        reply = ReplyMessage(client_id=0, query_id=1, items=(item,))
        assert reply.expiry_deadline(item, now=50.0) == 150.0

    def test_expiry_deadline_infinite(self):
        item = ReplyItem(oid(1), "a0", 5, 0, math.inf, 80, key_id=14)
        reply = ReplyMessage(client_id=0, query_id=1, items=(item,))
        assert math.isinf(reply.expiry_deadline(item, now=50.0))

    def test_trailer_flag_defaults_false(self):
        reply = ReplyMessage(client_id=0, query_id=1, items=())
        assert not reply.is_trailer


class TestSizeIsInsertionOrderIndependent:
    """Regression for the REP003 fixes: wire sizes are order-free sums,
    so dict build order can never reach the accounting."""

    def test_needed_order(self):
        def make(needed):
            return RequestMessage(
                client_id=0,
                query_id=1,
                granularity=CachingGranularity.ATTRIBUTE,
                needed=needed,
            )

        forward = {oid(n): ("a0", "a1") for n in (1, 2, 3)}
        backward = {oid(n): ("a0", "a1") for n in (3, 2, 1)}
        assert make(forward).size_bytes == make(backward).size_bytes

    def test_updates_order(self):
        def make(updates):
            return RequestMessage(
                client_id=0,
                query_id=1,
                granularity=CachingGranularity.ATTRIBUTE,
                needed={},
                updates=updates,
            )

        changes = (UpdateValue("a0", 7, 80),)
        forward = {oid(n): changes for n in (1, 2, 3)}
        backward = {oid(n): changes for n in (3, 2, 1)}
        assert make(forward).size_bytes == make(backward).size_bytes


# ----------------------------------------------------------------------
# Once-computed sizes against the per-call accounting they replaced
# ----------------------------------------------------------------------
def reference_request_size(request):
    """The size loop messages ran on every ``size_bytes`` read before
    they computed it once: sorted, one OID charge per first sighting."""
    size = HEADER_BYTES + QUERY_DESCRIPTOR_BYTES
    oids_on_wire = set()
    for oid_, attrs in sorted(request.needed.items()):
        oids_on_wire.add(oid_)
        size += OID_BYTES + len(attrs) * ATTR_ID_BYTES
    for oid_, attribute in (*request.existent, *request.held):
        if oid_ not in oids_on_wire:
            oids_on_wire.add(oid_)
            size += OID_BYTES
        if attribute is not None:
            size += ATTR_ID_BYTES
    for oid_, changes in sorted(request.updates.items()):
        if oid_ not in oids_on_wire:
            oids_on_wire.add(oid_)
            size += OID_BYTES
        for change in changes:
            size += ATTR_ID_BYTES + change.size_bytes
    return size


def reference_reply_size(reply):
    def wire_bytes(item):
        size = item.payload_bytes + REFRESH_TIME_BYTES
        if item.attribute is not None:
            size += ATTR_ID_BYTES
        return size

    size = HEADER_BYTES
    size += OID_BYTES * len({item.oid for item in reply.items})
    size += sum(wire_bytes(item) for item in reply.items)
    return size


oids = st.builds(oid, st.integers(min_value=0, max_value=6))
attributes = st.sampled_from(["a0", "a1", "a2", "r0"])
keys = st.tuples(oids, st.one_of(st.none(), attributes))
updates = st.lists(
    st.builds(
        UpdateValue,
        attributes,
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=200),
    ),
    min_size=1,
    max_size=3,
).map(tuple)
reply_items = st.builds(
    ReplyItem,
    oids,
    st.one_of(st.none(), attributes),
    st.integers(),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, allow_nan=False),
    st.integers(min_value=1, max_value=1024),
    st.integers(min_value=0, max_value=100),
)


@settings(max_examples=150, deadline=None)
@given(
    needed=st.dictionaries(
        oids, st.lists(attributes, max_size=4).map(tuple), max_size=5
    ),
    existent=st.lists(keys, max_size=8).map(tuple),
    held=st.lists(keys, max_size=8).map(tuple),
    updates=st.dictionaries(oids, updates, max_size=4),
    granularity=st.sampled_from(list(CachingGranularity)),
)
def test_request_size_matches_reference(
    needed, existent, held, updates, granularity
):
    request = RequestMessage(
        client_id=0,
        query_id=1,
        granularity=granularity,
        needed=needed,
        existent=existent,
        held=held,
        updates=updates,
    )
    assert request.size_bytes == reference_request_size(request)


@settings(max_examples=150, deadline=None)
@given(
    items=st.lists(reply_items, max_size=12).map(tuple),
    is_trailer=st.booleans(),
)
def test_reply_size_matches_reference(items, is_trailer):
    reply = ReplyMessage(
        client_id=0, query_id=1, items=items, is_trailer=is_trailer
    )
    assert reply.size_bytes == reference_reply_size(reply)


class TestMessagesAreFrozen:
    def test_request_fields_cannot_be_assigned(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
        )
        for name in ("needed", "existent", "updates", "size_bytes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(request, name, ())

    def test_reply_fields_cannot_be_assigned(self):
        reply = ReplyMessage(client_id=0, query_id=1, items=())
        for name in ("items", "is_trailer", "size_bytes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(reply, name, ())

    def test_size_excluded_from_equality(self):
        def make():
            return RequestMessage(
                client_id=0,
                query_id=1,
                granularity=CachingGranularity.HYBRID,
                needed={oid(1): ("a0",)},
                held=((oid(1), "a1"),),
            )

        assert make() == make()
