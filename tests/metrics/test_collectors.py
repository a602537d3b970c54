"""Unit tests for metric collectors and summaries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.collectors import ClientMetrics, MetricsSink, MetricsSummary
from repro.obs.batches import CacheAccessBatch


def make_client(client_id=0, accesses=(), queries=()):
    metrics = ClientMetrics(client_id)
    for is_hit, is_error in accesses:
        metrics.record_access(is_hit, is_error)
    for response, connected in queries:
        metrics.record_query(response, connected)
    return metrics


class TestClientMetrics:
    def test_access_accounting(self):
        metrics = make_client(
            accesses=[(True, False), (True, True), (False, False)]
        )
        assert metrics.hit.ratio == pytest.approx(2 / 3)
        assert metrics.error.ratio == pytest.approx(1 / 3)

    def test_query_accounting(self):
        metrics = make_client(
            queries=[(1.0, True), (3.0, True), (0.5, False)]
        )
        assert metrics.queries == 3
        assert metrics.disconnected_queries == 1
        assert metrics.response.mean == pytest.approx(1.5)

    def test_initial_state(self):
        metrics = ClientMetrics(7)
        assert metrics.hit.ratio == 0.0
        assert metrics.queries == 0
        assert metrics.bytes_sent == 0


class TestMetricsSummary:
    def test_requires_clients(self):
        with pytest.raises(ValueError):
            MetricsSummary([])

    def test_aggregates_across_clients(self):
        a = make_client(0, accesses=[(True, False)] * 3,
                        queries=[(1.0, True)])
        b = make_client(1, accesses=[(False, False)] * 1,
                        queries=[(3.0, True)])
        summary = MetricsSummary([a, b])
        assert summary.hit_ratio == pytest.approx(0.75)
        assert summary.response_time == pytest.approx(2.0)
        assert summary.total_queries == 2
        assert summary.total_accesses == 4

    def test_error_rate_aggregation(self):
        a = make_client(0, accesses=[(True, True), (True, False)])
        b = make_client(1, accesses=[(False, False)] * 2)
        summary = MetricsSummary([a, b])
        assert summary.error_rate == pytest.approx(0.25)

    def test_confidence_interval(self):
        a = make_client(
            0, queries=[(1.0, True), (2.0, True), (3.0, True)]
        )
        summary = MetricsSummary([a])
        low, high = summary.response_confidence_interval()
        assert low <= summary.response_time <= high

    def test_row_rendering(self):
        a = make_client(0, accesses=[(True, False)], queries=[(1.0, True)])
        row = MetricsSummary([a]).row("label")
        assert row.label == "label"
        assert "label" in row.formatted()
        assert row.queries == 1


def _fold_state(metrics):
    return (
        (metrics.hit.hits, metrics.hit.total),
        (metrics.error.hits, metrics.error.total),
        (metrics.disconnected_error.hits, metrics.disconnected_error.total),
        dict(metrics.hit_series._hits),
        dict(metrics.hit_series._totals),
        dict(metrics.error_series._hits),
        dict(metrics.error_series._totals),
        metrics.stale_served_accesses,
        metrics.unanswered_accesses,
    )


_ACCESS = st.tuples(
    st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()
).map(
    # (hit, error, answered, connected, stale); unanswered reads are
    # never errors, as the client guarantees.
    lambda f: (f[0], f[1] and f[2], f[2], f[3], f[4])
)


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20_000.0),
            st.lists(_ACCESS, max_size=12),
        ),
        max_size=6,
    )
)
def test_batch_fold_matches_per_access_fold(batches):
    """Folding a batch leaves the counters exactly where folding its
    events one by one does."""
    one_by_one, batched = MetricsSink(), MetricsSink()
    for time, records in sorted(batches):
        batch = CacheAccessBatch(time, 3)
        for hit, error, answered, connected, stale in records:
            batch.add(
                ("k", len(batch)), hit, error, answered, connected, stale
            )
        for event in batch.events():
            one_by_one.on_access(event)
        batched.on_access_batch(batch)
    assert _fold_state(batched.client(3)) == _fold_state(one_by_one.client(3))


def test_batch_fold_rejects_an_unanswered_error():
    batch = CacheAccessBatch(1.0, 0)
    batch.add("k", False, True, False, False)
    with pytest.raises(ValueError, match="unanswered"):
        MetricsSink().on_access_batch(batch)
