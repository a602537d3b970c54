"""Parallel execution engine: golden equivalence and isolation tests.

The pool's contract is that worker count and completion order are
unobservable in the results: a figure's point runs at ``jobs=N`` must
produce byte-identical rows to the serial path.  These tests lock that
down on reduced-horizon Figure 2 and Figure 7 sweeps, plus the
out-of-order-completion and worker-crash-isolation cases the contract
implies, and the seeds the scenario layer hands the executor.
"""

import collections
import io
import pickle

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    ParallelExecutor,
    RunDescriptor,
    config_key,
    execute_descriptor,
    resolve_jobs,
)
from repro.experiments.scenarios import (
    REPLICATION_DIM,
    ReplicationPlan,
    Scenario,
    get_scenario,
    point_table,
)
from repro.experiments.tables import paper_figure, select_experiments

#: Small horizon keeping the grids affordable (exp1 is 32 runs, exp5 27).
EQUIVALENCE_HORIZON_HOURS = 0.15


def descriptors_of(runs):
    """Hand-written ``(dims, config)`` runs as declaration-ordered
    descriptors."""
    return [
        RunDescriptor(index=index, dims=dict(dims), config=config)
        for index, (dims, config) in enumerate(runs)
    ]


def run_table(descriptors, jobs):
    outcomes = ParallelExecutor(jobs=jobs).run("t", descriptors)
    return point_table("t", "t", outcomes)


def row_bytes(table):
    """Canonical byte serialisation of a table's simulation outputs.

    ``elapsed_seconds`` is wall-clock, not a simulation output, so it is
    excluded; everything the paper's figures are built from is included.
    """
    parts = []
    for row in table.rows:
        parts.append(
            repr(
                (
                    sorted(row.dims.items()),
                    row.hit_ratio,
                    row.response_time,
                    row.error_rate,
                    row.queries,
                    row.disconnected_error_rate,
                    row.drops,
                    row.retries,
                    row.timeouts,
                    row.degraded,
                    sorted(row.event_counts.items()),
                )
            )
        )
    return "\n".join(parts).encode("utf-8")


class TestGoldenEquivalence:
    """jobs=4 and jobs=1 must agree bitwise on real experiment sweeps."""

    def test_exp1_parallel_matches_serial(self):
        figure = paper_figure(2)
        serial = figure.run(EQUIVALENCE_HORIZON_HOURS, jobs=1)
        parallel = figure.run(EQUIVALENCE_HORIZON_HOURS, jobs=4)
        assert row_bytes(serial) == row_bytes(parallel)
        assert serial.rows == parallel.rows
        assert not serial.failures and not parallel.failures

    def test_exp5_parallel_matches_serial(self):
        figure = paper_figure(7)
        serial = figure.run(EQUIVALENCE_HORIZON_HOURS, jobs=1)
        parallel = figure.run(EQUIVALENCE_HORIZON_HOURS, jobs=4)
        assert row_bytes(serial) == row_bytes(parallel)
        assert serial.rows == parallel.rows
        # The instrumentation spine must be as deterministic as the
        # metrics it feeds: identical per-type event totals regardless
        # of worker count.
        def merged(table):
            totals = collections.Counter()
            for row in table.rows:
                totals.update(row.event_counts)
            return totals

        assert merged(serial) == merged(parallel)
        assert merged(serial)["QueryComplete"] == sum(
            row.queries for row in serial.rows
        )

    def test_exp7_parallel_matches_serial(self):
        """Fault draws must replay identically across worker processes.

        Uses aggressive knobs (20% loss, 10 s timeout) so the fault and
        recovery paths genuinely fire within the reduced horizon, then
        checks the drop/retry/timeout/degraded counters bitwise.
        """
        runs = [
            (
                {"granularity": g, "retry_budget": budget},
                SimulationConfig(
                    granularity=g,
                    loss_rate=0.2,
                    request_timeout_seconds=10.0,
                    retry_budget=budget,
                    backoff_base_seconds=2.0,
                    horizon_hours=EQUIVALENCE_HORIZON_HOURS,
                ),
            )
            for g in ("AC", "OC", "HC")
            for budget in (0, 2)
        ]
        serial = run_table(descriptors_of(runs), jobs=1)
        parallel = run_table(descriptors_of(runs), jobs=4)
        assert row_bytes(serial) == row_bytes(parallel)
        assert serial.rows == parallel.rows
        assert not serial.failures and not parallel.failures
        # The sweep must actually have exercised the fault machinery.
        assert sum(row.drops for row in serial.rows) > 0
        assert sum(row.retries for row in serial.rows) > 0
        assert sum(row.timeouts for row in serial.rows) > 0

    def test_exp7_driver_entrypoint_matches_serial(self):
        (experiment,) = select_experiments(["7"])
        serial = experiment.run(EQUIVALENCE_HORIZON_HOURS, jobs=1)
        parallel = experiment.run(EQUIVALENCE_HORIZON_HOURS, jobs=2)
        assert row_bytes(serial) == row_bytes(parallel)
        assert serial.rows == parallel.rows
        # Both sub-sweeps land in the one table, losses first.
        assert len(serial.rows) == 27 + 9
        assert serial.rows[-1].dims["burst"] is True

    def test_driver_entrypoint_accepts_jobs(self, monkeypatch):
        """``jobs=None`` defers to REPRO_JOBS, invisibly in the rows."""
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        table = paper_figure(7).run(EQUIVALENCE_HORIZON_HOURS)
        reference = paper_figure(7).run(EQUIVALENCE_HORIZON_HOURS, jobs=1)
        assert table.rows == reference.rows


class TestOutOfOrderCompletion:
    """Fast runs finish first; declared order must come out regardless."""

    def test_results_keep_declaration_order(self):
        # Run 0 simulates ~25x more time than run 1, so with two workers
        # run 1 completes long before run 0 does.
        runs = [
            ({"which": "slow"}, SimulationConfig(horizon_hours=2.5)),
            ({"which": "fast"}, SimulationConfig(horizon_hours=0.1)),
        ]
        log = io.StringIO()
        executor = ParallelExecutor(jobs=2, progress=True, stream=log)
        outcomes = executor.run("order", descriptors_of(runs))
        assert [o.dims["which"] for o in outcomes] == ["slow", "fast"]
        assert [o.index for o in outcomes] == [0, 1]
        # The progress log records completion order: the fast run is
        # reported as the first completion despite being declared last.
        first_line = log.getvalue().splitlines()[0]
        assert "run 1/2" in first_line

    def test_serial_path_used_for_single_run(self):
        runs = [({"which": "only"}, SimulationConfig(horizon_hours=0.1))]
        executor = ParallelExecutor(jobs=8)
        outcomes = executor.run("single", descriptors_of(runs))
        assert len(outcomes) == 1 and outcomes[0].ok


class TestCrashIsolation:
    """A run that raises must not take the sweep down with it."""

    @staticmethod
    def runs_with_crash():
        # An unknown replacement spec passes config validation but
        # raises ReplacementError when the simulation is wired up —
        # i.e. inside the worker.
        return [
            ({"slot": 0}, SimulationConfig(horizon_hours=0.1)),
            ({"slot": 1}, SimulationConfig(replacement="no-such-policy",
                                           horizon_hours=0.1)),
            ({"slot": 2}, SimulationConfig(granularity="AC",
                                           horizon_hours=0.1)),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_surfaces_without_killing_sweep(self, jobs):
        table = run_table(descriptors_of(self.runs_with_crash()), jobs)
        assert [row.dims["slot"] for row in table.rows] == [0, 2]
        assert len(table.failures) == 1
        failure = table.failures[0]
        assert failure.index == 1
        assert "no-such-policy" in failure.label
        assert "ReplacementError" in failure.traceback

    def test_serial_and_parallel_agree_on_failures(self):
        serial = run_table(descriptors_of(self.runs_with_crash()), 1)
        parallel = run_table(descriptors_of(self.runs_with_crash()), 2)
        assert serial.rows == parallel.rows
        assert [f.index for f in serial.failures] == [
            f.index for f in parallel.failures
        ]


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)


class TestRunDescriptors:
    def test_descriptor_is_picklable(self):
        descriptors = paper_figure(2).descriptors(horizon_hours=1.0)
        clone = pickle.loads(pickle.dumps(descriptors[5]))
        assert clone == descriptors[5]
        assert clone.config == descriptors[5].config

    def test_indices_follow_declaration_order(self):
        descriptors = paper_figure(2).descriptors(horizon_hours=1.0)
        assert [d.index for d in descriptors] == list(range(32))

    def test_execute_descriptor_records_timing(self):
        (descriptor,) = descriptors_of(
            [({"k": 1}, SimulationConfig(horizon_hours=0.1))]
        )
        outcome = execute_descriptor(descriptor)
        assert outcome.ok
        assert outcome.elapsed_seconds > 0.0


class TestSeedDecorrelation:
    """Point runs share the caller's seed (common random numbers);
    replications decorrelate by replication index, never by position."""

    def test_default_preserves_config_seeds(self):
        descriptors = paper_figure(7).descriptors(1.0, seed=42)
        assert all(d.config.seed == 42 for d in descriptors)

    def test_decorrelated_runs_get_distinct_seeds(self):
        plan = ReplicationPlan(
            get_scenario("exp5-coherence"), replications=3,
            horizon_hours=1.0, seed=42,
        )
        seeds = collections.defaultdict(set)
        for d in plan.descriptors():
            seeds[d.dims[REPLICATION_DIM]].add(d.config.seed)
        # One seed per replication, shared by all of its cells.
        assert all(len(shared) == 1 for shared in seeds.values())
        assert len(set.union(*seeds.values())) == 3

    def test_reordering_never_changes_a_configs_seed(self):
        spec = {
            "base": {"num_clients": 2},
            "sweep": [
                {"name": "granularity", "values": ["AC", "OC", "HC"]},
                {"name": "beta", "values": [-1.0, 0.0, 1.0]},
            ],
            "replications": 2,
        }
        reversed_spec = {
            **spec,
            "sweep": [
                {**d, "values": list(reversed(d["values"]))}
                for d in reversed(spec["sweep"])
            ],
        }

        def seeds(raw):
            plan = ReplicationPlan(
                Scenario.from_dict("order", raw), horizon_hours=1.0
            )
            return {
                (config_key(d.config), d.dims[REPLICATION_DIM]):
                    d.config.seed
                for d in plan.descriptors()
            }

        assert seeds(spec) == seeds(reversed_spec)

    def test_config_key_ignores_seed(self):
        a = SimulationConfig(horizon_hours=1.0, seed=1)
        b = SimulationConfig(horizon_hours=1.0, seed=2)
        c = SimulationConfig(horizon_hours=2.0, seed=1)
        assert config_key(a) == config_key(b)
        assert config_key(a) != config_key(c)

    def test_decorrelated_parallel_matches_serial(self):
        scenario = Scenario.from_dict("dec", {
            "sweep": [{"name": "granularity", "values": ["AC", "OC", "HC"]}],
            "replications": 2,
        })
        plan = ReplicationPlan(scenario, horizon_hours=0.15)
        serial = run_table(plan.descriptors(), jobs=1)
        parallel = run_table(plan.descriptors(), jobs=2)
        assert serial.rows == parallel.rows
        # And decorrelation really changed the draws between the
        # replications of a cell.
        first, second = (
            serial.filter(**{REPLICATION_DIM: rep}) for rep in (0, 1)
        )
        for a, b in zip(first.rows, second.rows, strict=True):
            assert a.dims["granularity"] == b.dims["granularity"]
            assert (a.hit_ratio, a.response_time) != (
                b.hit_ratio, b.response_time
            )
