"""Scenario registry: declarative replicated experiments.

A scenario is a declarative spec (dict or TOML) naming a base config,
the swept dimensions, a replication count and a warm-up fraction; the
registry holds the paper's experiments as specs, the plan expands them
into seeded runs, and the runner aggregates warm-up-truncated metrics
into per-cell confidence intervals.  Point runs (one run per cell at
the caller's seed) come out as an :class:`ExperimentTable` of whole-run
metrics instead.  See DESIGN.md §13 for the seed
hierarchy and EXPERIMENTS.md for the methodology.
"""

from repro.experiments.scenarios.plan import (
    REPLICATION_DIM,
    PlannedRun,
    ReplicationPlan,
    point_descriptors,
)
from repro.experiments.scenarios.registry import (
    get_scenario,
    register,
    register_dict,
    register_toml,
    scenario_names,
    scenarios,
)
from repro.experiments.scenarios.run import (
    METRICS,
    CellResult,
    ExperimentRow,
    ExperimentTable,
    ScenarioResult,
    collect_outcomes,
    point_table,
    replication_metrics,
    run_scenario,
)
from repro.experiments.scenarios.spec import (
    Cell,
    Dimension,
    Scenario,
    load_toml,
)
from repro.experiments.scenarios.stats import (
    MetricStats,
    batch_means_ci,
    replication_ci,
    t_cdf,
    t_critical,
    warmup_window,
)

__all__ = [
    "METRICS",
    "REPLICATION_DIM",
    "Cell",
    "CellResult",
    "Dimension",
    "ExperimentRow",
    "ExperimentTable",
    "MetricStats",
    "PlannedRun",
    "ReplicationPlan",
    "Scenario",
    "ScenarioResult",
    "batch_means_ci",
    "collect_outcomes",
    "get_scenario",
    "load_toml",
    "point_descriptors",
    "point_table",
    "register",
    "register_dict",
    "register_toml",
    "replication_ci",
    "replication_metrics",
    "run_scenario",
    "scenario_names",
    "scenarios",
    "t_cdf",
    "t_critical",
    "warmup_window",
]
