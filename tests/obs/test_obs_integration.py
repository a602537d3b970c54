"""End-to-end checks of the instrumentation spine.

The two acceptance properties of the refactor:

* **Strict no-op** — attaching every optional sink must not perturb a
  single simulation output (sinks observe, they never feed back).
* **Round-trip** — a JSONL trace exported by a seeded run summarises to
  exactly the per-type counts the run itself reported.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_simulation
from repro.experiments.tables import paper_figure
from repro.metrics.collectors import MetricsSink
from repro.obs.sinks import summarize_trace

#: Short but non-trivial: a few hundred queries across 10 clients.
HORIZON_HOURS = 0.3


def headline(result):
    return (
        result.summary.total_queries,
        result.hit_ratio,
        result.response_time,
        result.error_rate,
        result.uplink_utilization,
        result.downlink_utilization,
        result.raw_bytes,
        result.goodput_bytes,
    )


class TestStrictNoOp:
    def test_all_sinks_on_changes_no_simulation_output(self, tmp_path):
        base = SimulationConfig(horizon_hours=HORIZON_HOURS)
        bare = run_simulation(base)
        instrumented = run_simulation(
            base.replaced(
                trace_path=str(tmp_path / "run.jsonl"),
                profile=True,
                staleness_timeline=True,
            )
        )
        assert headline(instrumented) == headline(bare)
        # The instrumented run really did observe something extra.
        assert instrumented.trace_events > 0
        assert instrumented.profile  # non-empty wall-clock breakdown
        assert instrumented.staleness  # non-empty timeline
        # Guarded events exist only when someone listens: the bare run's
        # tally must be a strict subset of the instrumented run's.
        assert set(bare.event_counts) <= set(instrumented.event_counts)
        # Always-on (metrics-feeding) events are identical either way.
        for name, count in bare.event_counts.items():
            assert instrumented.event_counts[name] == count

    def test_disabled_run_emits_no_guarded_events(self):
        result = run_simulation(
            SimulationConfig(horizon_hours=HORIZON_HOURS)
        )
        # These types only exist for optional sinks; with none attached
        # the emit guard must prevent their construction entirely.
        for guarded in ("CacheAdmit", "CacheEvict", "RefreshExpired",
                        "RequestServed", "ResourceWait"):
            assert guarded not in result.event_counts


class TestTraceRoundTrip:
    def test_seeded_exp5_trace_round_trips_through_summarize(
        self, tmp_path
    ):
        # One representative run of the coherence experiment (updates
        # present, so refresh/staleness machinery is exercised).
        config = paper_figure(7).descriptors(HORIZON_HOURS)[0].config
        path = str(tmp_path / "exp5.jsonl")
        result = run_simulation(config.replaced(trace_path=path))
        summary = summarize_trace(path)
        assert summary["events"] == result.trace_events
        assert summary["events"] == sum(result.event_counts.values())
        assert summary["counts"] == dict(
            sorted(result.event_counts.items())
        )
        assert summary["last_time"] <= config.horizon_seconds

    def test_trace_is_deterministic_for_a_seed(self, tmp_path):
        config = SimulationConfig(horizon_hours=0.15)
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        run_simulation(config.replaced(trace_path=first))
        run_simulation(config.replaced(trace_path=second))
        with open(first) as fa, open(second) as fb:
            assert fa.read() == fb.read()


class TestMetricsSink:
    def test_install_is_idempotent_per_bus(self):
        from repro.obs.bus import EventBus

        bus = EventBus()
        sink = MetricsSink.install(bus)
        assert MetricsSink.install(bus) is sink

    def test_client_views_are_stable(self):
        from repro.obs.bus import EventBus

        sink = MetricsSink.install(EventBus())
        assert sink.client(3) is sink.client(3)
        assert sink.client(3) is not sink.client(4)


class TestProfileSurface:
    def test_profile_none_when_disabled(self):
        result = run_simulation(SimulationConfig(horizon_hours=0.1))
        assert result.profile is None

    def test_profile_buckets_cover_known_subsystems(self):
        result = run_simulation(
            SimulationConfig(horizon_hours=0.2, profile=True)
        )
        assert result.profile is not None
        assert "client" in result.profile
        shares = [cells["share"] for cells in result.profile.values()]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
