"""Compact event batches for the bus's one-call publish path.

A query resolves dozens of attribute accesses, and each used to cross
the bus as its own :class:`~repro.obs.events.CacheAccess`.  The client
now gathers them into one :class:`CacheAccessBatch` and publishes it
with :meth:`~repro.obs.bus.EventBus.emit_batch`.  The metrics sink,
the staleness timeline and the invariant checkers fold the records in
one pass, decoding a key only where they need its ``(OID, attribute)``
form.  Only a subscriber without a batch handler (the trace export)
makes the bus build the per-access events, in the same order and with
the same keys as before.  :meth:`CacheAccessBatch.of` turns a lone
event back into a one-record batch, so a sink can keep a single fold
for both.
"""

from __future__ import annotations

import typing as t

from repro.obs.events import CacheAccess, KeyLike, SimEvent

#: One access as the batch stores it: ``(key, hit, error, answered,
#: connected, stale_served, age_seconds)`` — :class:`CacheAccess`'s
#: fields after ``time`` and ``client_id``, which a batch shares.
AccessRecord = tuple[t.Any, bool, bool, bool, bool, bool, "float | None"]


def _same_key(key: t.Any) -> KeyLike:
    return key


class CacheAccessBatch:
    """Accesses one client resolved at one instant, as one bus call.

    ``decode`` maps a record's key to the key the expanded events carry
    (the key space's id decoder when the client works on dense ids).
    """

    event_type: t.ClassVar[type[SimEvent]] = CacheAccess

    __slots__ = ("time", "client_id", "decode", "records")

    def __init__(
        self,
        time: float,
        client_id: int,
        decode: t.Callable[[t.Any], KeyLike] = _same_key,
    ) -> None:
        self.time = time
        self.client_id = client_id
        self.decode = decode
        self.records: list[AccessRecord] = []

    def __repr__(self) -> str:
        return (
            f"<CacheAccessBatch client={self.client_id} t={self.time:g} "
            f"accesses={len(self.records)}>"
        )

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def of(cls, event: CacheAccess) -> "CacheAccessBatch":
        """A one-record batch holding ``event`` (its key as is)."""
        batch = cls(event.time, event.client_id)
        batch.add(
            event.key,
            event.hit,
            event.error,
            event.answered,
            event.connected,
            event.stale_served,
            event.age_seconds,
        )
        return batch

    def add(
        self,
        key: t.Any,
        hit: bool,
        error: bool,
        answered: bool,
        connected: bool,
        stale_served: bool = False,
        age_seconds: float | None = None,
    ) -> None:
        """Append one access (same fields as :class:`CacheAccess`)."""
        self.records.append(
            (key, hit, error, answered, connected, stale_served, age_seconds)
        )

    def events(self) -> t.Iterator[CacheAccess]:
        """The batch as individual events, in the order they were added."""
        time = self.time
        client_id = self.client_id
        decode = self.decode
        for key, hit, error, answered, connected, stale, age in self.records:
            yield CacheAccess(
                time=time,
                client_id=client_id,
                key=decode(key),
                hit=hit,
                error=error,
                answered=answered,
                connected=connected,
                stale_served=stale,
                age_seconds=age,
            )
