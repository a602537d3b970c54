"""Golden-value regression pins.

The simulation is fully deterministic for a given seed, so headline
metrics of a fixed configuration are pinned *exactly*.  These pins catch
unintended behavioural drift anywhere in the stack (kernel scheduling,
random-stream usage, protocol sizes, policy decisions).

If a change to the model is intentional, update the pins — the diff then
documents the behavioural impact of the change.
"""

import pytest

from repro import SimulationConfig, run_simulation


def test_default_hc_configuration_pinned():
    result = run_simulation(SimulationConfig(horizon_hours=2.0))
    assert result.summary.total_queries == 736
    assert result.hit_ratio == pytest.approx(
        0.42774003623188406, abs=1e-12
    )
    assert result.response_time == pytest.approx(
        1.9377924475364128, abs=1e-9
    )
    assert result.error_rate == pytest.approx(
        0.033627717391304345, abs=1e-12
    )


def test_oc_lru_configuration_pinned():
    result = run_simulation(
        SimulationConfig(
            granularity="OC", replacement="lru", horizon_hours=2.0
        )
    )
    assert result.summary.total_queries == 736
    assert result.hit_ratio == pytest.approx(
        0.46324728260869563, abs=1e-12
    )
    assert result.response_time == pytest.approx(
        8.239159990457395, abs=1e-9
    )
    assert result.error_rate == pytest.approx(
        0.07601902173913043, abs=1e-12
    )


#: SHA-256 of the JSONL trace of a traced 1 h HC run, pinned before
#: cache keys became dense integer ids: events decode ids back to
#: ``(OID, attribute)`` keys, and batched accesses reach the trace sink
#: one event at a time in the original order, so the bytes must match.
HC_1H_TRACE_SHA256 = (
    "6d4e3db63e57113d8c5dacb20fe44293a223af8909d77263265eed2bbc76d0a9"
)


def test_hc_trace_bytes_pinned(tmp_path):
    import hashlib

    path = tmp_path / "hc-1h.jsonl"
    result = run_simulation(
        SimulationConfig(
            granularity="HC", horizon_hours=1.0, trace_path=str(path)
        )
    )
    assert result.trace_events == 51_794
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        HC_1H_TRACE_SHA256
    )


def test_access_event_count_matches_accesses():
    """Every access is counted as one CacheAccess, batched or not, and
    CacheAccess stays the first type the bus saw."""
    result = run_simulation(SimulationConfig(horizon_hours=2.0))
    assert result.event_counts["CacheAccess"] == 44_160
    assert result.summary.total_accesses == 44_160
    assert next(iter(result.event_counts)) == "CacheAccess"
