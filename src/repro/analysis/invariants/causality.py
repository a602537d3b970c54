"""Causality checkers: the request/reply lifecycle, per client.

Every message and lifecycle event must have a cause earlier in the
stream:

* **CAU001** — a :class:`ReplyReceived`, :class:`LateReply` or
  :class:`RequestServed` must name a query some prior
  :class:`RequestSent` of the same client opened (the server cannot
  answer, and the client cannot consume, a request never sent).
* **CAU002** — a :class:`QueryComplete` must be preceded by at least
  one :class:`CacheAccess` of that client since its previous
  completion (results cannot be delivered without resolving a single
  attribute access).
* **CAU003** — remote-round attempts are monotonically numbered:
  attempt 0 opens each round, every retry increments by exactly one,
  and :class:`RequestSent`/:class:`ReplyTimeout` carry the attempt
  number of the round they belong to.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.analysis.invariants.engine import Handler, InvariantChecker
from repro.obs.batches import CacheAccessBatch
from repro.obs.events import (
    LateReply,
    QueryComplete,
    RemoteRound,
    ReplyReceived,
    ReplyTimeout,
    RequestSent,
    RequestServed,
)


@dataclasses.dataclass
class _ClientState:
    """Per-client request/reply lifecycle state."""

    requested: set[int] = dataclasses.field(default_factory=set)
    accesses_since_complete: int = 0
    round_query: int | None = None
    round_attempt: int = -1


class CausalityChecker(InvariantChecker):
    """CAU001-CAU003: replies pair with requests, attempts count up."""

    checker_id = "CAU"
    title = "request/reply causality and retry numbering per client"

    def __init__(self) -> None:
        super().__init__()
        self._clients: dict[int, _ClientState] = {}

    def _state(self, client_id: int) -> _ClientState:
        state = self._clients.get(client_id)
        if state is None:
            state = _ClientState()
            self._clients[client_id] = state
        return state

    def handlers(self) -> dict[type[t.Any], Handler]:
        return {
            CacheAccessBatch: self.on_access_batch,
            RemoteRound: self._on_round,
            RequestSent: self._on_request,
            ReplyTimeout: self._on_timeout,
            ReplyReceived: self._on_reply_side,
            LateReply: self._on_reply_side,
            RequestServed: self._on_reply_side,
            QueryComplete: self._on_complete,
        }

    # ------------------------------------------------------------------
    def on_access_batch(self, batch: CacheAccessBatch) -> None:
        self._state(batch.client_id).accesses_since_complete += len(batch)

    def _on_round(self, event: RemoteRound) -> None:
        state = self._state(event.client_id)
        if event.query_id != state.round_query:
            if event.attempt != 0:
                self.violation(
                    "CAU003",
                    event.time,
                    f"client-{event.client_id}/query-{event.query_id}",
                    f"first RemoteRound of a query has attempt="
                    f"{event.attempt}; rounds must open at attempt 0",
                )
            state.round_query = event.query_id
        elif event.attempt != state.round_attempt + 1:
            self.violation(
                "CAU003",
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                f"RemoteRound attempt jumped from "
                f"{state.round_attempt} to {event.attempt}; retries "
                "must increment by exactly one",
            )
        state.round_attempt = event.attempt

    def _on_request(self, event: RequestSent) -> None:
        state = self._state(event.client_id)
        state.requested.add(event.query_id)
        self._check_attempt(event, "RequestSent")

    def _on_timeout(self, event: ReplyTimeout) -> None:
        self._check_attempt(event, "ReplyTimeout")

    def _check_attempt(
        self, event: RequestSent | ReplyTimeout, kind: str
    ) -> None:
        state = self._state(event.client_id)
        if (
            event.query_id != state.round_query
            or event.attempt != state.round_attempt
        ):
            self.violation(
                "CAU003",
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                f"{kind} carries attempt {event.attempt} but the open "
                f"round is query {state.round_query} attempt "
                f"{state.round_attempt}",
            )

    def _on_reply_side(
        self, event: ReplyReceived | LateReply | RequestServed
    ) -> None:
        if event.query_id not in self._state(event.client_id).requested:
            self.violation(
                "CAU001",
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                f"{type(event).__name__} for a query no RequestSent "
                "ever opened",
            )

    def _on_complete(self, event: QueryComplete) -> None:
        state = self._state(event.client_id)
        if state.accesses_since_complete == 0:
            self.violation(
                "CAU002",
                event.time,
                f"client-{event.client_id}/query-{event.query_id}",
                "QueryComplete with no CacheAccess since the client's "
                "previous completion",
            )
        state.accesses_since_complete = 0
