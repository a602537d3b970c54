"""Mutation tests: each violation fixture trips exactly its checker.

Every ``fixtures/*.jsonl`` file is a minimal hand-built trace breaking
one protocol law.  Replaying it through :func:`check_trace` must
produce violations of *only* the intended checker id — proof both that
the checker detects its mutation and that no other checker
false-positives on the same stream.
"""

from pathlib import Path

import pytest

from repro.analysis.invariants import InvariantEngine, check_trace
from repro.analysis.invariants.engine import decode_record
from repro.obs.batches import CacheAccessBatch
from repro.obs.bus import EventBus
from repro.obs.events import CacheAccess
from repro.obs.sinks import read_trace

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the one violation id it must trip.
EXPECTED = {
    "coh001_hit_after_expiry.jsonl": "COH001",
    "coh002_stale_hit.jsonl": "COH002",
    "coh003_hit_after_expired.jsonl": "COH003",
    "cau001_reply_without_request.jsonl": "CAU001",
    "cau002_complete_without_access.jsonl": "CAU002",
    "cau003_attempt_jump.jsonl": "CAU003",
    "con001_byte_mismatch.jsonl": "CON001",
    "con002_unmatched_drop_fault.jsonl": "CON002",
    "con003_over_capacity.jsonl": "CON003",
    "con003_reject_of_resident.jsonl": "CON003",
    "con003_admit_of_resident.jsonl": "CON003",
    "con004_complete_out_of_order.jsonl": "CON004",
    "con005_negative_wait.jsonl": "CON005",
    "con005_negative_age.jsonl": "CON005",
}

#: Fixtures whose violations fire on CacheAccess records.
ACCESS_FIXTURES = (
    "coh001_hit_after_expiry.jsonl",
    "coh002_stale_hit.jsonl",
    "coh003_hit_after_expired.jsonl",
    "con005_negative_age.jsonl",
)


def test_every_fixture_is_covered():
    on_disk = {path.name for path in FIXTURES.glob("*.jsonl")}
    assert on_disk == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_trips_exactly_its_checker(name):
    report = check_trace(str(FIXTURES / name))
    assert not report.ok
    assert report.malformed_lines == 0
    assert report.unknown_records == 0
    tripped = {v.checker_id for v in report.violations}
    assert tripped == {EXPECTED[name]}, report.summary()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_violations_carry_scope_and_message(name):
    report = check_trace(str(FIXTURES / name))
    for violation in report.violations:
        assert violation.scope
        assert violation.message
        assert violation.checker_id in violation.formatted()


def publish_as_batches(path, bus):
    """Emit a trace on ``bus`` the way a live client does: consecutive
    CacheAccess records of one (time, client) as one batch over int
    key ids, every other record as its own event."""
    ids: dict[object, int] = {}
    keys: list[object] = []
    batch = None
    for record in read_trace(path):
        event = decode_record(record)
        if type(event) is not CacheAccess:
            if batch is not None:
                bus.emit_batch(batch)
                batch = None
            bus.emit(event)
            continue
        if batch is None or (batch.time, batch.client_id) != (
            event.time,
            event.client_id,
        ):
            if batch is not None:
                bus.emit_batch(batch)
            batch = CacheAccessBatch(
                event.time, event.client_id, keys.__getitem__
            )
        if event.key not in ids:
            ids[event.key] = len(keys)
            keys.append(event.key)
        batch.add(
            ids[event.key],
            event.hit,
            event.error,
            event.answered,
            event.connected,
            event.stale_served,
            event.age_seconds,
        )
    if batch is not None:
        bus.emit_batch(batch)


@pytest.mark.parametrize("name", ACCESS_FIXTURES)
def test_batched_accesses_trip_the_same_violations(name):
    """The live batch path and trace replay report identical
    violations (ids, times, scopes, messages) and event counts."""
    bus = EventBus()
    engine = InvariantEngine().attach(bus)
    publish_as_batches(str(FIXTURES / name), bus)
    live = engine.report()
    replay = check_trace(str(FIXTURES / name))

    def found(report):
        return sorted(
            (v.checker_id, v.time, v.scope, v.message)
            for v in report.violations
        )

    assert found(live)
    assert found(live) == found(replay)
    assert live.events_checked == replay.events_checked
