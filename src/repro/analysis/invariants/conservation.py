"""Conservation checkers: nothing is created or destroyed untracked.

Every byte of airtime, every cache slot and every query must be
accounted for exactly once — the laws behind the byte/query accounting
that produces the paper's Figures 4-11:

* **CON001** — channel byte conservation: each transmission exits as
  exactly one of delivered/dropped/aborted, full-airtime outcomes
  carry their full byte count, aborts carry a partial one, and per
  channel ``goodput <= raw = completed + aborted partials``.
* **CON002** — fault accounting: every dropped transmission pairs with
  one injected ``drop`` fault, and the injector never reports more
  aborts than the channel saw.
* **CON003** — cache occupancy: ``admits - evicts - invalidations``
  equals occupancy, which never goes negative nor exceeds the cache's
  byte budget at any step.  Admission rejections stay *out* of the
  ledger: a ``CacheReject`` must target a non-resident key and must not
  move occupancy (and a ``CacheAdmit`` must not target a resident one —
  in-place refreshes emit ``CacheRefresh``).
* **CON004** — query conservation: per client, query ids complete
  exactly once in issue order, and every degraded query still reaches
  its completion.
* **CON005** — structural sanity: durations, ages and byte counts are
  non-negative and fault kinds are from the known set.

Family totals reconcile against the live run objects (``CON006`` for
channels/network, ``CON007`` for caches) when a :class:`RunContext`
is available.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.analysis.invariants.engine import (
    Handler,
    InvariantChecker,
    RunContext,
)
from repro.obs.batches import CacheAccessBatch
from repro.obs.events import (
    KIND_ABORT,
    KIND_BURST_ENTER,
    KIND_BURST_EXIT,
    KIND_DROP,
    OUTCOME_ABORTED,
    OUTCOME_DELIVERED,
    OUTCOME_DROPPED,
    CacheAdmit,
    CacheEvict,
    CacheInvalidate,
    CacheReject,
    FaultEvent,
    QueryComplete,
    QueryDegraded,
    RefreshExpired,
    ResourceWait,
    TransmitOutcome,
)

#: Slack for accumulated float byte counters (partial aborts divide).
BYTE_EPS = 1e-6
_OUTCOMES = (OUTCOME_DELIVERED, OUTCOME_DROPPED, OUTCOME_ABORTED)
_FAULT_KINDS = (KIND_DROP, KIND_ABORT, KIND_BURST_ENTER, KIND_BURST_EXIT)


@dataclasses.dataclass
class _ChannelState:
    """Per-channel byte and message tallies."""

    bytes_carried: float = 0.0
    bytes_delivered: float = 0.0
    bytes_aborted: float = 0.0
    delivered: int = 0
    dropped: int = 0
    aborted: int = 0
    fault_drops: int = 0
    fault_aborts: int = 0
    faults_seen: int = 0


class ChannelConservationChecker(InvariantChecker):
    """CON001-CON002 (+CON006 reconcile): channel byte conservation."""

    checker_id = "CON-channel"
    title = "per-channel byte conservation and fault accounting"

    def __init__(self) -> None:
        super().__init__()
        self._channels: dict[str, _ChannelState] = {}

    def _channel(self, name: str) -> _ChannelState:
        state = self._channels.get(name)
        if state is None:
            state = _ChannelState()
            self._channels[name] = state
        return state

    def handlers(self) -> dict[type[t.Any], Handler]:
        return {
            TransmitOutcome: self._on_outcome,
            FaultEvent: self._on_fault,
        }

    # ------------------------------------------------------------------
    def _on_outcome(self, event: TransmitOutcome) -> None:
        state = self._channel(event.channel)
        scope = f"channel-{event.channel}"
        if event.outcome not in _OUTCOMES:
            self.violation(
                "CON001",
                event.time,
                scope,
                f"unknown transmission outcome {event.outcome!r}",
            )
            return
        if event.size_bytes < 0 or event.airtime_seconds < 0:
            self.violation(
                "CON001",
                event.time,
                scope,
                f"negative size ({event.size_bytes:g}B) or airtime "
                f"({event.airtime_seconds:g}s)",
            )
        if event.outcome == OUTCOME_ABORTED:
            if not -BYTE_EPS <= event.bytes_on_air <= (
                event.size_bytes + BYTE_EPS
            ):
                self.violation(
                    "CON001",
                    event.time,
                    scope,
                    f"aborted transmission put {event.bytes_on_air:g}B "
                    f"on air for a {event.size_bytes:g}B message",
                )
            state.aborted += 1
            state.bytes_aborted += event.bytes_on_air
            return
        if abs(event.bytes_on_air - event.size_bytes) > BYTE_EPS:
            self.violation(
                "CON001",
                event.time,
                scope,
                f"completed transmission carried {event.bytes_on_air:g}B "
                f"on air but is sized {event.size_bytes:g}B",
            )
        state.bytes_carried += event.size_bytes
        if event.outcome == OUTCOME_DELIVERED:
            state.delivered += 1
            state.bytes_delivered += event.size_bytes
        else:
            state.dropped += 1

    def _on_fault(self, event: FaultEvent) -> None:
        state = self._channel(event.channel)
        state.faults_seen += 1
        if event.kind == KIND_DROP:
            state.fault_drops += 1
        elif event.kind == KIND_ABORT:
            state.fault_aborts += 1
        elif event.kind not in _FAULT_KINDS:
            self.violation(
                "CON005",
                event.time,
                f"channel-{event.channel}",
                f"unknown fault kind {event.kind!r}",
            )

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        for name, state in sorted(self._channels.items()):
            scope = f"channel-{name}"
            raw = state.bytes_carried + state.bytes_aborted
            if state.bytes_delivered > raw + BYTE_EPS:
                self.violation(
                    "CON001",
                    0.0,
                    scope,
                    f"goodput ({state.bytes_delivered:g}B) exceeds raw "
                    f"airtime ({raw:g}B)",
                )
            if not state.faults_seen:
                continue
            if state.fault_drops != state.dropped:
                self.violation(
                    "CON002",
                    0.0,
                    scope,
                    f"{state.dropped} dropped transmissions but "
                    f"{state.fault_drops} injected drop faults",
                )
            if state.fault_aborts > state.aborted:
                self.violation(
                    "CON002",
                    0.0,
                    scope,
                    f"injector recorded {state.fault_aborts} aborts but "
                    f"the channel only saw {state.aborted}",
                )

    def reconcile(self, context: RunContext) -> None:
        raw = 0.0
        goodput = 0.0
        for name, stats in sorted(context.channel_stats.items()):
            state = self._channels.get(name, _ChannelState())
            raw += state.bytes_carried + state.bytes_aborted
            goodput += state.bytes_delivered
            pairs = (
                ("bytes carried", state.bytes_carried, stats.bytes_carried),
                (
                    "bytes delivered",
                    state.bytes_delivered,
                    stats.bytes_delivered,
                ),
                ("bytes aborted", state.bytes_aborted, stats.bytes_aborted),
                (
                    "messages dropped",
                    float(state.dropped),
                    float(stats.messages_dropped),
                ),
                (
                    "messages aborted",
                    float(state.aborted),
                    float(stats.messages_aborted),
                ),
            )
            for label, from_events, from_stats in pairs:
                if abs(from_events - from_stats) > BYTE_EPS:
                    self.violation(
                        "CON006",
                        0.0,
                        f"channel-{name}",
                        f"{label} derived from events ({from_events:g}) "
                        f"!= channel stats ({from_stats:g})",
                    )
        if context.channel_stats:
            if abs(raw - context.raw_bytes) > BYTE_EPS:
                self.violation(
                    "CON006",
                    0.0,
                    "network",
                    f"raw bytes from events ({raw:g}) != network total "
                    f"({context.raw_bytes:g})",
                )
            if abs(goodput - context.goodput_bytes) > BYTE_EPS:
                self.violation(
                    "CON006",
                    0.0,
                    "network",
                    f"goodput from events ({goodput:g}) != network "
                    f"total ({context.goodput_bytes:g})",
                )


@dataclasses.dataclass
class _CacheState:
    """Per-(client, cache) occupancy ledger."""

    occupancy: int = 0
    capacity: int = 0
    admits: int = 0
    evicts: int = 0
    invalidations: int = 0
    rejections: int = 0
    over_capacity_reported: bool = False
    resident: "set[object]" = dataclasses.field(default_factory=set)


class CacheConservationChecker(InvariantChecker):
    """CON003 (+CON007 reconcile): cache slots are conserved."""

    checker_id = "CON-cache"
    title = "cache occupancy ledger: admits - evicts = occupancy <= capacity"

    def __init__(self) -> None:
        super().__init__()
        self._caches: dict[tuple[int, str], _CacheState] = {}

    def _cache(self, client_id: int, cache: str) -> _CacheState:
        state = self._caches.get((client_id, cache))
        if state is None:
            state = _CacheState()
            self._caches[(client_id, cache)] = state
        return state

    def handlers(self) -> dict[type[t.Any], Handler]:
        return {
            CacheReject: self._on_reject,
            CacheAdmit: self._on_admit,
            CacheEvict: self._on_removed,
            CacheInvalidate: self._on_removed,
        }

    # ------------------------------------------------------------------
    def _on_reject(self, event: CacheReject) -> None:
        # A denied admission must not move the ledger, and denial only
        # makes sense for a key that is not already resident (a
        # resident key takes the refresh path instead).
        state = self._cache(event.client_id, event.cache)
        state.rejections += 1
        if event.key in state.resident:
            self.violation(
                "CON003",
                event.time,
                f"client-{event.client_id}/{event.cache}",
                f"admission of resident key {event.key!r} was "
                "rejected: resident keys must refresh in place",
            )

    def _on_admit(self, event: CacheAdmit) -> None:
        state = self._cache(event.client_id, event.cache)
        state.admits += 1
        state.occupancy += event.size_bytes
        if event.key in state.resident:
            self.violation(
                "CON003",
                event.time,
                f"client-{event.client_id}/{event.cache}",
                f"admit of already-resident key {event.key!r}: "
                "in-place refreshes must emit CacheRefresh",
            )
        state.resident.add(event.key)
        if event.capacity_bytes > 0:
            state.capacity = event.capacity_bytes
        if (
            state.capacity
            and state.occupancy > state.capacity
            and not state.over_capacity_reported
        ):
            state.over_capacity_reported = True
            self.violation(
                "CON003",
                event.time,
                f"client-{event.client_id}/{event.cache}",
                f"occupancy {state.occupancy}B exceeds capacity "
                f"{state.capacity}B after admit",
            )

    def _on_removed(self, event: CacheEvict | CacheInvalidate) -> None:
        state = self._cache(event.client_id, event.cache)
        if type(event) is CacheEvict:
            state.evicts += 1
        else:
            state.invalidations += 1
        state.resident.discard(event.key)
        state.occupancy -= event.size_bytes
        if state.occupancy < 0:
            self.violation(
                "CON003",
                event.time,
                f"client-{event.client_id}/{event.cache}",
                f"occupancy went negative ({state.occupancy}B): more "
                "bytes removed than were ever admitted",
            )
            # Clamp so one miscount does not cascade into a violation
            # per subsequent event.
            state.occupancy = 0

    def reconcile(self, context: RunContext) -> None:
        for (client_id, name), cache in sorted(context.caches.items()):
            state = self._caches.get((client_id, name), _CacheState())
            scope = f"client-{client_id}/{name}"
            if state.occupancy != cache.used_bytes:
                self.violation(
                    "CON007",
                    0.0,
                    scope,
                    f"event ledger occupancy ({state.occupancy}B) != "
                    f"live cache ({cache.used_bytes}B)",
                )
            if state.admits != cache.admissions:
                self.violation(
                    "CON007",
                    0.0,
                    scope,
                    f"admits from events ({state.admits}) != cache "
                    f"admission count ({cache.admissions})",
                )
            if state.evicts != cache.evictions:
                self.violation(
                    "CON007",
                    0.0,
                    scope,
                    f"evicts from events ({state.evicts}) != cache "
                    f"eviction count ({cache.evictions})",
                )
            if state.rejections != cache.rejections:
                self.violation(
                    "CON007",
                    0.0,
                    scope,
                    f"rejections from events ({state.rejections}) != "
                    f"cache rejection count ({cache.rejections})",
                )


class QueryConservationChecker(InvariantChecker):
    """CON004: queries complete exactly once, in issue order."""

    checker_id = "CON-query"
    title = "query ids complete once, in order; degraded queries complete"

    def __init__(self) -> None:
        super().__init__()
        #: client_id -> (last completed query id, pending degraded id).
        self._last_completed: dict[int, int] = {}
        self._pending_degraded: dict[int, int] = {}

    def handlers(self) -> dict[type[t.Any], Handler]:
        return {
            QueryComplete: self._on_complete,
            QueryDegraded: self._on_degraded,
        }

    def _on_degraded(self, event: QueryDegraded) -> None:
        client_id = event.client_id
        query_id = event.query_id
        last = self._last_completed.get(client_id, 0)
        pending = self._pending_degraded.get(client_id)
        if query_id <= last:
            self.violation(
                "CON004",
                event.time,
                f"client-{client_id}/query-{query_id}",
                f"QueryDegraded for query {query_id} which already "
                f"completed (last completed: {last})",
            )
        if pending is not None and pending != query_id:
            self.violation(
                "CON004",
                event.time,
                f"client-{client_id}/query-{query_id}",
                f"degraded query {pending} never completed before "
                f"query {query_id} degraded",
            )
        self._pending_degraded[client_id] = query_id

    def _on_complete(self, event: QueryComplete) -> None:
        client_id = event.client_id
        query_id = event.query_id
        last = self._last_completed.get(client_id, 0)
        if query_id <= last:
            self.violation(
                "CON004",
                event.time,
                f"client-{client_id}/query-{query_id}",
                f"QueryComplete out of issue order: query {query_id} "
                f"after query {last} already completed",
            )
        pending = self._pending_degraded.pop(client_id, None)
        if pending is not None and pending != query_id:
            self.violation(
                "CON004",
                event.time,
                f"client-{client_id}/query-{query_id}",
                f"degraded query {pending} never completed before "
                f"query {query_id} did",
            )
        self._last_completed[client_id] = max(last, query_id)


class StructuralChecker(InvariantChecker):
    """CON005: durations, ages and sizes are physically plausible."""

    checker_id = "CON-structural"
    title = "non-negative durations, ages and byte counts"

    def handlers(self) -> dict[type[t.Any], Handler]:
        return {
            ResourceWait: self._on_wait,
            QueryComplete: self._on_complete,
            CacheAccessBatch: self.on_access_batch,
            RefreshExpired: self._on_expired,
        }

    def _negative(
        self, time: float, scope: str, field: str, value: float
    ) -> None:
        self.violation(
            "CON005", time, scope, f"{field} is negative ({value:g})"
        )

    def _on_wait(self, event: ResourceWait) -> None:
        if event.wait_seconds < 0:
            self._negative(
                event.time,
                f"resource-{event.resource}",
                "ResourceWait.wait_seconds",
                event.wait_seconds,
            )
        if event.hold_seconds < 0:
            self._negative(
                event.time,
                f"resource-{event.resource}",
                "ResourceWait.hold_seconds",
                event.hold_seconds,
            )

    def _on_complete(self, event: QueryComplete) -> None:
        if event.response_seconds < 0:
            self._negative(
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                "QueryComplete.response_seconds",
                event.response_seconds,
            )

    def on_access_batch(self, batch: CacheAccessBatch) -> None:
        for key, __, __, __, __, __, age in batch.records:
            if age is not None and age < 0:
                self._negative(
                    batch.time,
                    f"client-{batch.client_id}/{batch.decode(key)}",
                    "CacheAccess.age_seconds",
                    age,
                )

    def _on_expired(self, event: RefreshExpired) -> None:
        if event.age_seconds < 0:
            self._negative(
                event.time,
                f"client-{event.client_id}/{event.key}",
                "RefreshExpired.age_seconds",
                event.age_seconds,
            )
