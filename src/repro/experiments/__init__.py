"""Experiments: the scenario registry, its executor and the figures.

Every sweep runs through one path: a registered scenario
(:mod:`repro.experiments.scenarios`) expands into run descriptors, the
:class:`ParallelExecutor` runs them, and the outcomes fold into either
replicated confidence intervals (``run_scenario``) or a figure's point
table (``point_table``).  :mod:`repro.experiments.tables` names the
paper's figures and Table 1 over that registry.

Quick use::

    from repro.experiments.tables import paper_figure

    figure2 = paper_figure(2)
    print(figure2.render(figure2.run(horizon_hours=8)))
"""

from repro.experiments.config import (
    FAST_HORIZON_HOURS,
    FULL_HORIZON_HOURS,
    SimulationConfig,
    default_horizon_hours,
)
from repro.experiments.parallel import (
    ParallelExecutor,
    RunDescriptor,
    RunFailure,
    RunOutcome,
    resolve_jobs,
)
from repro.experiments.runner import (
    Simulation,
    SimulationResult,
    run_simulation,
)

__all__ = [
    "FAST_HORIZON_HOURS",
    "FULL_HORIZON_HOURS",
    "ParallelExecutor",
    "RunDescriptor",
    "RunFailure",
    "RunOutcome",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "default_horizon_hours",
    "resolve_jobs",
    "run_simulation",
]
