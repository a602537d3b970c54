"""Replication planning: scenario -> ordered, seeded run descriptors.

A :class:`ReplicationPlan` expands every cell of a scenario into N
replicated runs.  Cells iterate in declaration order (outer), the
replication index runs innermost, and each replication's seed derives
from the scenario base seed via
:func:`repro.sim.rand.replication_seed` — content-keyed, so:

* all cells of one replication share a seed (*common random numbers*:
  within a replication, policy comparisons see the same workload);
* distinct replications draw decorrelated streams;
* nothing depends on run-list position or worker scheduling, so the
  plan is bit-identical under any ``--jobs`` and any execution order.

:func:`point_descriptors` is the single-run counterpart the paper's
figure tables use: one run per cell, at the caller's own seed (common
random numbers across every cell), from the same
``Scenario.cells()``/``Scenario.build_config`` calls.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.experiments.parallel import RunDescriptor
from repro.experiments.scenarios.spec import Cell, Scenario
from repro.sim.rand import replication_seed

#: The dimension name carrying the replication index in run dims.
REPLICATION_DIM = "replication"


@dataclasses.dataclass(frozen=True)
class PlannedRun:
    """One (cell, replication) pair of a plan, fully resolved."""

    index: int
    cell_index: int
    replication: int
    cell: Cell
    seed: int


class ReplicationPlan:
    """The full, ordered run expansion of one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        replications: "int | None" = None,
        horizon_hours: "float | None" = None,
        seed: int = 42,
        extra_base: "t.Mapping[str, t.Any] | None" = None,
    ) -> None:
        self.scenario = scenario
        self.replications = (
            replications
            if replications is not None
            else scenario.replications
        )
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications!r}"
            )
        self.horizon_hours = scenario.resolve_horizon(horizon_hours)
        self.base_seed = seed
        self.extra_base = dict(extra_base) if extra_base else {}
        self.cells = scenario.cells()

    def __len__(self) -> int:
        return len(self.cells) * self.replications

    def runs(self) -> list[PlannedRun]:
        """Every run, cells outer, replications inner."""
        planned = []
        index = 0
        for cell_index, cell in enumerate(self.cells):
            for replication in range(self.replications):
                planned.append(
                    PlannedRun(
                        index=index,
                        cell_index=cell_index,
                        replication=replication,
                        cell=cell,
                        seed=replication_seed(self.base_seed, replication),
                    )
                )
                index += 1
        return planned

    def descriptor(self, run: PlannedRun) -> RunDescriptor:
        """The picklable descriptor of one planned run."""
        dims = run.cell.dims_dict()
        dims[REPLICATION_DIM] = run.replication
        config = self.scenario.build_config(
            run.cell,
            self.horizon_hours,
            run.seed,
            extra_base=self.extra_base or None,
        )
        return RunDescriptor(index=run.index, dims=dims, config=config)

    def descriptors(self) -> list[RunDescriptor]:
        return [self.descriptor(run) for run in self.runs()]


def point_descriptors(
    scenarios: t.Sequence[Scenario],
    horizon_hours: "float | None" = None,
    seed: int = 42,
) -> list[RunDescriptor]:
    """One run per cell of each scenario, in order, at ``seed`` itself.

    Indices run on across the scenarios, so several scenarios (a
    figure's sub-sweeps) form one declaration-ordered run list.
    """
    descriptors = []
    for scenario in scenarios:
        horizon = scenario.resolve_horizon(horizon_hours)
        for cell in scenario.cells():
            descriptors.append(
                RunDescriptor(
                    index=len(descriptors),
                    dims=cell.dims_dict(),
                    config=scenario.build_config(cell, horizon, seed),
                )
            )
    return descriptors
