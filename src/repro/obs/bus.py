"""The typed event bus every simulation publishes through.

One :class:`EventBus` per simulation.  Emitters are domain objects
(client, cache, channels, server, kernel resources); subscribers are
sinks (metric collectors, the JSONL trace writer, the staleness
timeline, the invariant engine).  Dispatch is by exact event type — a handler subscribed to
:class:`~repro.obs.events.CacheAccess` sees only those.

The **zero-overhead-when-off contract**: an emit site whose event only
exists for optional sinks guards itself with :meth:`EventBus.wants`;
when no subscriber asked for the type, the event object is never even
constructed.  Always-on events (the ones the headline metrics are built
from) skip the guard — their sink is attached in every run.

Dispatch order is subscription order, which the wiring code keeps
deterministic, so two runs of the same configuration emit and process
byte-identical event sequences (the property the parallel executor's
merge relies on).

**Batches.**  A hot emitter may hand the bus many events of one type in
one call (:meth:`EventBus.emit_batch`; the client publishes each
query's :class:`~repro.obs.events.CacheAccess` events that way).  The
type's counter advances once per event.  Subscribers that registered a
batch handler receive the batch whole; every other subscriber —
catch-all sinks included — receives the individual events, expanded in
order, exactly as if each had been emitted on its own.  With only batch
handlers listening, no per-event object is ever built: the metrics
sink, the staleness timeline and the invariant engine all bring one,
so of the built-in subscribers only the trace writer makes the bus
expand.  Batch handlers run before the expanding subscribers, which is
invisible to sinks that do not feed back into each other.
"""

from __future__ import annotations

import typing as t

from repro.obs.events import SimEvent

#: A subscriber callable; receives the emitted event.
Handler = t.Callable[[t.Any], None]

E = t.TypeVar("E", bound=SimEvent)

_NO_HANDLERS: tuple[Handler, ...] = ()


class EventBatch(t.Protocol):
    """Many events of one type, published in one :meth:`EventBus.emit_batch`."""

    #: The exact type of every event in the batch.
    event_type: t.ClassVar[type[SimEvent]]

    def __len__(self) -> int: ...

    def events(self) -> t.Iterator[SimEvent]:
        """The batch's events, built one by one in emission order."""
        ...


class _TypeRecord:
    """Per-type dispatch cache: one counter plus the flattened handlers.

    Built on first emit of a type and patched in place whenever a
    subscription changes, so :meth:`EventBus.emit` — the always-on hot
    path, run once per published event — costs a single dict probe, one
    integer increment and the handler loop.  For an always-on type with
    no subscribers the handler tuple is empty, so the count bookkeeping
    short-circuits to just the increment (no name lookup, no dict
    writes, no second dispatch-table probe).

    ``batch_handlers`` and ``expand_handlers`` split the same
    subscribers for :meth:`EventBus.emit_batch`: those that take a
    batch whole, and those (catch-all sinks included) that need each
    event on its own.
    """

    __slots__ = ("name", "count", "handlers", "batch_handlers",
                 "expand_handlers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.handlers: tuple[Handler, ...] = ()
        self.batch_handlers: tuple[Handler, ...] = ()
        self.expand_handlers: tuple[Handler, ...] = ()


class EventBus:
    """Type-dispatched publish/subscribe hub with per-type counters."""

    __slots__ = ("_handlers", "_batch_handlers", "_catch_all", "_records",
                 "sinks")

    def __init__(self) -> None:
        self._handlers: dict[type[SimEvent], tuple[Handler, ...]] = {}
        #: Per type: the batch handler paired with each entry of
        #: ``_handlers`` (``None`` when that subscriber takes events
        #: one at a time only).
        self._batch_handlers: dict[
            type[SimEvent], tuple[Handler | None, ...]
        ] = {}
        self._catch_all: tuple[Handler, ...] = ()
        #: Dispatch cache, keyed by exact event type; also the backing
        #: store for the per-type emit counters (see :attr:`counts`).
        self._records: dict[type[SimEvent], _TypeRecord] = {}
        #: Named sink registry so wiring code can share one sink per bus
        #: (e.g. the metrics sink all clients report through).
        self.sinks: dict[str, object] = {}

    def __repr__(self) -> str:
        return (
            f"<EventBus types={len(self._handlers)} "
            f"catch_all={len(self._catch_all)} "
            f"emitted={sum(r.count for r in self._records.values())}>"
        )

    # ------------------------------------------------------------------
    def subscribe(
        self,
        event_type: type[E],
        handler: t.Callable[[E], None],
        batch_handler: t.Callable[[t.Any], None] | None = None,
    ) -> None:
        """Deliver every future event of exactly ``event_type`` to
        ``handler`` (subclasses do not match; dispatch is exact).

        With ``batch_handler`` set, batches of the type published
        through :meth:`emit_batch` go to it whole instead of to
        ``handler`` one event at a time; it must fold a batch exactly
        as ``handler`` would fold the batch's events in order.
        """
        self._handlers[event_type] = self._handlers.get(
            event_type, _NO_HANDLERS
        ) + (t.cast(Handler, handler),)
        self._batch_handlers[event_type] = self._batch_handlers.get(
            event_type, ()
        ) + (batch_handler,)
        record = self._records.get(event_type)
        if record is not None:
            self._wire(event_type, record)

    def subscribe_all(self, handler: Handler) -> None:
        """Deliver every emitted event of any type to ``handler``."""
        self._catch_all = self._catch_all + (handler,)
        for event_type, record in self._records.items():
            self._wire(event_type, record)

    def _wire(self, event_type: type[SimEvent], record: _TypeRecord) -> None:
        """(Re)flatten one type's subscribers into its dispatch record."""
        handlers = self._handlers.get(event_type, _NO_HANDLERS)
        batchers = self._batch_handlers.get(event_type, ())
        record.handlers = handlers + self._catch_all
        record.batch_handlers = tuple(
            batcher for batcher in batchers if batcher is not None
        )
        record.expand_handlers = tuple(
            handler
            for handler, batcher in zip(handlers, batchers, strict=True)
            if batcher is None
        ) + self._catch_all

    def _record(self, event_type: type[SimEvent]) -> _TypeRecord:
        record = self._records[event_type] = _TypeRecord(event_type.__name__)
        self._wire(event_type, record)
        return record

    def wants(self, event_type: type[SimEvent]) -> bool:
        """Whether anyone would see ``event_type`` — the emit guard.

        Guarded emit sites call this before constructing the event::

            if bus.wants(CacheEvict):
                bus.emit(CacheEvict(...))
        """
        return bool(self._catch_all) or event_type in self._handlers

    def emit(self, event: SimEvent) -> None:
        """Publish ``event`` to its subscribers (and catch-all sinks)."""
        cls = type(event)
        record = self._records.get(cls)
        if record is None:
            record = self._record(cls)
        record.count += 1
        for handler in record.handlers:
            handler(event)

    def emit_batch(self, batch: EventBatch) -> None:
        """Publish every event of ``batch`` in one call.

        Counts and delivery match emitting the events one by one: batch
        handlers get the batch, every other subscriber the expanded
        events in order.  An empty batch publishes nothing.
        """
        size = len(batch)
        if not size:
            return
        cls = batch.event_type
        record = self._records.get(cls)
        if record is None:
            record = self._record(cls)
        record.count += size
        for batch_handler in record.batch_handlers:
            batch_handler(batch)
        expand = record.expand_handlers
        if expand:
            for event in batch.events():
                for handler in expand:
                    handler(event)

    @property
    def counts(self) -> dict[str, int]:
        """Emitted-event tally per type name, in first-emit order.

        Deterministic for a given configuration and sink set (first-emit
        order is simulation order), surfaced in run results.  Built on
        demand from the dispatch cache so the per-emit cost is a single
        integer increment.
        """
        return {
            record.name: record.count for record in self._records.values()
        }
