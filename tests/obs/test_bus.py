"""Unit tests for the typed event bus."""

from repro.obs.batches import CacheAccessBatch
from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    QueryComplete,
)
from repro.obs.sinks import EventCounter


def access(time=1.0, **overrides):
    fields = dict(
        time=time,
        client_id=0,
        key="oid-1",
        hit=True,
        error=False,
        answered=True,
        connected=True,
    )
    fields.update(overrides)
    return CacheAccess(**fields)


class TestDispatch:
    def test_typed_subscription_sees_only_its_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(CacheAccess, seen.append)
        bus.emit(access())
        bus.emit(QueryComplete(time=2.0, client_id=0, query_id=1,
                               response_seconds=0.5, connected=True))
        assert len(seen) == 1
        assert isinstance(seen[0], CacheAccess)

    def test_dispatch_is_exact_type_not_isinstance(self):
        bus = EventBus()
        seen = []
        # CacheAdmit and CacheEvict are siblings; subscribing to one
        # must never deliver the other even if a hierarchy existed.
        bus.subscribe(CacheAdmit, seen.append)
        bus.emit(CacheEvict(time=1.0, client_id=0, cache="c",
                            key="k", size_bytes=10.0))
        assert seen == []

    def test_multiple_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(CacheAccess, lambda e: order.append("first"))
        bus.subscribe(CacheAccess, lambda e: order.append("second"))
        bus.emit(access())
        assert order == ["first", "second"]

    def test_catch_all_runs_after_typed_handlers(self):
        bus = EventBus()
        order = []
        bus.subscribe_all(lambda e: order.append("all"))
        bus.subscribe(CacheAccess, lambda e: order.append("typed"))
        bus.emit(access())
        assert order == ["typed", "all"]

    def test_emit_without_subscribers_is_silent(self):
        bus = EventBus()
        bus.emit(access())  # must not raise
        assert bus.counts == {"CacheAccess": 1}


class TestWants:
    def test_wants_false_on_fresh_bus(self):
        assert not EventBus().wants(CacheEvict)

    def test_wants_true_after_typed_subscription(self):
        bus = EventBus()
        bus.subscribe(CacheEvict, lambda e: None)
        assert bus.wants(CacheEvict)
        assert not bus.wants(CacheAdmit)

    def test_catch_all_wants_everything(self):
        bus = EventBus()
        bus.subscribe_all(lambda e: None)
        assert bus.wants(CacheEvict)
        assert bus.wants(QueryComplete)


class TestCounts:
    def test_counts_tally_per_type_name(self):
        bus = EventBus()
        bus.emit(access())
        bus.emit(access(time=2.0))
        bus.emit(QueryComplete(time=3.0, client_id=0, query_id=1,
                               response_seconds=0.1, connected=True))
        assert bus.counts == {"CacheAccess": 2, "QueryComplete": 1}

    def test_event_counter_sink_matches_bus_counts(self):
        bus = EventBus()
        counter = EventCounter()
        bus.subscribe_all(counter.on_event)
        for i in range(3):
            bus.emit(access(time=float(i)))
        assert counter.counts == bus.counts


class TestSinkRegistry:
    def test_named_sinks_are_shared_per_bus(self):
        bus = EventBus()
        sink = object()
        bus.sinks["demo"] = sink
        assert bus.sinks["demo"] is sink


class TestEventShape:
    def test_events_are_frozen(self):
        import pytest

        event = access()
        with pytest.raises(AttributeError):
            event.hit = False  # type: ignore[misc]

    def test_optional_age_defaults_to_none(self):
        assert access().age_seconds is None
        assert access(age_seconds=12.5).age_seconds == 12.5


class TestBatches:
    def batch(self, *keys):
        batch = CacheAccessBatch(3.0, 4, decode=lambda k: ("key", k))
        for key in keys:
            batch.add(key, True, False, True, True, age_seconds=1.5)
        return batch

    def test_batch_handler_gets_the_batch_and_no_events(self):
        bus = EventBus()
        singles, batches = [], []
        bus.subscribe(CacheAccess, singles.append, batches.append)
        batch = self.batch(1, 2, 3)
        bus.emit_batch(batch)
        assert batches == [batch]
        assert singles == []
        assert bus.counts == {"CacheAccess": 3}

    def test_other_subscribers_get_expanded_events_in_order(self):
        bus = EventBus()
        typed, everything, batches = [], [], []
        bus.subscribe(CacheAccess, lambda e: None, batches.append)
        bus.subscribe(CacheAccess, typed.append)
        bus.subscribe_all(everything.append)
        bus.emit_batch(self.batch(7, 8))
        expected = [
            access(time=3.0, client_id=4, key=("key", key), age_seconds=1.5)
            for key in (7, 8)
        ]
        assert typed == expected
        assert everything == expected
        assert len(batches) == 1

    def test_single_emits_still_reach_batch_subscribers_per_event(self):
        bus = EventBus()
        singles, batches = [], []
        bus.subscribe(CacheAccess, singles.append, batches.append)
        bus.emit(access())
        assert singles == [access()]
        assert batches == []

    def test_empty_batch_publishes_nothing(self):
        bus = EventBus()
        bus.emit_batch(self.batch())
        bus.emit(QueryComplete(time=2.0, client_id=0, query_id=1,
                               response_seconds=0.5, connected=True))
        bus.emit_batch(self.batch(1))
        # First-emit order: the empty batch did not register the type.
        assert list(bus.counts) == ["QueryComplete", "CacheAccess"]

    def test_late_catch_all_switches_batches_to_expansion(self):
        bus = EventBus()
        batches, everything = [], []
        bus.subscribe(CacheAccess, lambda e: None, batches.append)
        bus.emit_batch(self.batch(1))
        bus.subscribe_all(everything.append)
        bus.emit_batch(self.batch(2))
        assert len(batches) == 2
        assert [event.key for event in everything] == [("key", 2)]
