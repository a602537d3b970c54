"""Property: checking accesses in batches equals checking them one by one.

The bus hands the checkers each query's accesses as one
:class:`~repro.obs.batches.CacheAccessBatch` over dense key ids; trace
replay hands them one access at a time.  For any stream of accesses,
admits, refreshes, evictions, expiries and completions, both must count
the same events, derive the same per-client coherence tallies and
report the same violations.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import (
    CoherenceChecker,
    InvariantEngine,
    default_checkers,
)
from repro.obs.batches import CacheAccessBatch
from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    CacheRefresh,
    QueryComplete,
    RefreshExpired,
)

KEYS = ("k0", "k1", "k2", "k3")

records = st.tuples(
    st.integers(0, len(KEYS) - 1),  # key id
    st.booleans(),  # hit
    st.booleans(),  # error
    st.booleans(),  # answered
    st.booleans(),  # connected
    st.booleans(),  # stale_served
    st.one_of(st.none(), st.floats(-2.0, 50.0)),  # age_seconds
)
clients = st.integers(0, 2)
keys = st.sampled_from(KEYS)
steps = st.one_of(
    st.tuples(st.just("access"), clients, st.lists(records, min_size=1,
                                                   max_size=8)),
    st.tuples(st.just("admit"), clients, keys, st.floats(0.0, 30.0)),
    st.tuples(st.just("refresh"), clients, keys, st.floats(0.0, 30.0)),
    st.tuples(st.just("evict"), clients, keys),
    st.tuples(st.just("expire"), clients, keys, st.floats(-1.0, 5.0)),
    st.tuples(st.just("complete"), clients),
)
stream = st.lists(st.tuples(st.floats(0.0, 10.0), steps), max_size=40)


def build(stream):
    """The stream as bus items: batches for accesses, events otherwise."""
    now = 0.0
    query_ids = {}
    items = []
    for advance, step in stream:
        now += advance
        kind, client = step[0], step[1]
        if kind == "access":
            batch = CacheAccessBatch(now, client, KEYS.__getitem__)
            for record in step[2]:
                batch.add(*record)
            items.append(batch)
        elif kind == "admit":
            items.append(
                CacheAdmit(now, client, "object-cache", step[2], 10, 0,
                           expires_at=now + step[3])
            )
        elif kind == "refresh":
            items.append(
                CacheRefresh(now, client, "object-cache", step[2],
                             now + step[3])
            )
        elif kind == "evict":
            items.append(CacheEvict(now, client, "object-cache", step[2], 10))
        elif kind == "expire":
            items.append(RefreshExpired(now, client, step[2], 1.0, step[3]))
        else:
            query_ids[client] = query_ids.get(client, 0) + 1
            items.append(
                QueryComplete(now, client, query_ids[client], 1.0, True)
            )
    return items


def outcome(engine):
    report = engine.report()
    coherence = next(
        c for c in engine.checkers if isinstance(c, CoherenceChecker)
    )
    return (
        report.events_checked,
        coherence._clients,
        sorted(
            (v.checker_id, v.time, v.scope, v.message)
            for v in report.violations
        ),
    )


@settings(max_examples=150, deadline=None)
@given(stream=stream)
def test_batches_and_single_accesses_agree(stream):
    items = build(stream)

    bus = EventBus()
    batched = InvariantEngine(default_checkers(), max_violations=10_000)
    batched.attach(bus)
    for item in items:
        if isinstance(item, CacheAccessBatch):
            bus.emit_batch(item)
        else:
            bus.emit(item)

    single = InvariantEngine(default_checkers(), max_violations=10_000)
    for item in items:
        if isinstance(item, CacheAccessBatch):
            for event in item.events():
                assert isinstance(event, CacheAccess)
                single.feed(event)
        else:
            single.feed(item)

    assert outcome(batched) == outcome(single)
