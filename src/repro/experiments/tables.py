"""The paper's figures and Table 1, read off the scenario registry.

:data:`PAPER_EXPERIMENTS` is the one per-figure table: each entry names
the registered scenario(s) a figure sweeps, its title, and the
dimensions and metrics its rendering shows.  ``repro experiment N``,
``scripts/reproduce_paper.py`` and the figure benchmarks all run a
figure through its entry: one point run per cell at the caller's seed
(:func:`~repro.experiments.scenarios.plan.point_descriptors`), folded
into an :class:`~repro.experiments.scenarios.run.ExperimentTable`.
:func:`table1_rows` derives the paper's Table 1 from the same specs, so
the table can never drift from what the code actually runs.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.experiments import report
from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import (
    ParallelExecutor,
    RunDescriptor,
    RunOutcome,
)
from repro.experiments.scenarios.plan import point_descriptors
from repro.experiments.scenarios.registry import get_scenario, scenarios
from repro.experiments.scenarios.run import ExperimentTable, point_table
from repro.experiments.scenarios.spec import Scenario

#: Metrics a figure table shows unless its entry names others.
PAPER_METRICS = ("hit_ratio", "response_time", "error_rate")


@dataclasses.dataclass(frozen=True)
class PaperExperiment:
    """One figure of the paper as point runs of registered scenarios."""

    #: Record key of the table's runs in ``results/reproduction.json``.
    key: str
    scenarios: tuple[str, ...]
    dims: tuple[str, ...]
    metrics: tuple[str, ...] = PAPER_METRICS
    #: The paper's figure number; experiments beyond the paper have none
    #: and stay out of Table 1.
    figure: int | None = None
    #: Heading of the rendered table; defaults to the first scenario's.
    heading: str = ""

    @property
    def number(self) -> str:
        """The experiment number, as ``repro experiment N`` takes it."""
        return self.key.split("_")[0].removeprefix("exp")

    @property
    def title(self) -> str:
        return self.heading or self.specs()[0].title

    @property
    def experiment_id(self) -> str:
        return self.specs()[0].experiment_id

    def specs(self) -> list[Scenario]:
        return [get_scenario(name) for name in self.scenarios]

    def descriptors(
        self, horizon_hours: float | None = None, seed: int = 42
    ) -> list[RunDescriptor]:
        return point_descriptors(self.specs(), horizon_hours, seed)

    def table(self, outcomes: t.Sequence[RunOutcome]) -> ExperimentTable:
        return point_table(self.experiment_id, self.title, outcomes)

    def run(
        self,
        horizon_hours: float | None = None,
        seed: int = 42,
        jobs: int | None = None,
        progress: bool = False,
    ) -> ExperimentTable:
        """Every cell once at ``seed``; bit-identical at any ``jobs``."""
        executor = ParallelExecutor(jobs=jobs, progress=progress)
        return self.table(
            executor.run(
                self.experiment_id, self.descriptors(horizon_hours, seed)
            )
        )

    def render(self, table: ExperimentTable) -> str:
        return report.render_rows(table, self.dims, metrics=self.metrics)


PAPER_EXPERIMENTS: tuple[PaperExperiment, ...] = (
    PaperExperiment(
        "exp1",
        ("exp1-granularity",),
        ("query_kind", "arrival", "heat", "granularity"),
        figure=2,
    ),
    PaperExperiment(
        "exp2",
        ("exp2-replacement-ro",),
        ("heat", "query_kind", "arrival", "policy"),
        figure=3,
    ),
    PaperExperiment(
        "exp3",
        ("exp3-replacement-rw",),
        ("heat", "query_kind", "arrival", "policy"),
        figure=4,
    ),
    PaperExperiment(
        "exp4_f5",
        ("exp4-change-rates",),
        ("change_rate", "policy"),
        figure=5,
    ),
    PaperExperiment("exp4_f6", ("exp4-cyclic",), ("policy",), figure=6),
    PaperExperiment(
        "exp5",
        ("exp5-coherence",),
        ("beta", "update_probability", "granularity"),
        figure=7,
    ),
    PaperExperiment(
        "exp6",
        ("exp6-durations", "exp6-client-counts"),
        ("granularity", "duration_hours", "disconnected_clients"),
        metrics=("disconnected_error_rate", "error_rate", "hit_ratio"),
        figure=8,
        heading="Figure 8: error rates during disconnection",
    ),
    PaperExperiment(
        "exp7",
        ("exp7-losses", "exp7-bursts"),
        ("granularity", "loss_rate", "burst", "retry_budget"),
        metrics=(
            "hit_ratio", "response_time", "drops", "retries", "timeouts",
            "degraded",
        ),
    ),
)


def paper_figure(figure: int) -> PaperExperiment:
    """The entry that regenerates one of the paper's figures."""
    for experiment in PAPER_EXPERIMENTS:
        if experiment.figure == figure:
            return experiment
    raise KeyError(f"no experiment regenerates figure {figure}")


def select_experiments(tokens: t.Iterable[str]) -> list[PaperExperiment]:
    """Entries named by record key or experiment number, table order.

    Raises :class:`ValueError` naming every token that names no entry,
    so a typo cannot silently shrink a sweep.
    """
    wanted = list(tokens)
    keys = [experiment.key for experiment in PAPER_EXPERIMENTS]
    numbers = {experiment.number for experiment in PAPER_EXPERIMENTS}
    unknown = [
        token for token in wanted if token not in numbers and token not in keys
    ]
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; use a "
            f"number ({', '.join(sorted(numbers))}) or a record key "
            f"({', '.join(keys)})"
        )
    return [
        experiment
        for experiment in PAPER_EXPERIMENTS
        if experiment.key in wanted or experiment.number in wanted
    ]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
_DEFAULTS = {
    field.name: field.default
    for field in dataclasses.fields(SimulationConfig)
}
#: Experiments #2 and #3 run one sweep and differ only in U and the
#: client count, so their U cell names the count.
_CLIENT_NOTE = ("2", "3")


def _fmt(values: t.Iterable[t.Any]) -> str:
    return ", ".join(str(v) for v in values)


def _unique(values: t.Iterable[t.Any]) -> list[t.Any]:
    return list(dict.fromkeys(values))


def _swept(specs: t.Sequence[Scenario], field: str) -> list[t.Any]:
    """Values a config field is swept over, across the scenarios."""
    return _unique(
        value
        for spec in specs
        for dimension in spec.sweep
        if dimension.config_field == field
        for value in dimension.values
    )


def _values(specs: t.Sequence[Scenario], field: str) -> list[t.Any]:
    """Every value a config field takes: swept, else base, else default."""
    return _unique(
        value
        for spec in specs
        for value in (
            _swept([spec], field)
            or [dict(spec.base).get(field, _DEFAULTS[field])]
        )
    )


def _heat_cell(specs: t.Sequence[Scenario]) -> str:
    labels = []
    for spec in specs:
        rates = _swept([spec], "csh_change_every")
        suffix = " " + "/".join(map(str, rates)) if rates else ""
        labels.extend(heat + suffix for heat in _values([spec], "heat"))
    return _fmt(_unique(labels))


def _update_cell(specs: t.Sequence[Scenario], number: str) -> str:
    cell = ", ".join(
        f"{u:g}" for u in _values(specs, "update_probability")
    )
    if number in _CLIENT_NOTE:
        clients = _values(specs, "num_clients")[0]
        cell += f" ({clients} client{'' if clients == 1 else 's'})"
    betas = _swept(specs, "beta")
    if betas:
        cell += f"; beta {_fmt(betas)}"
    return cell


def _disconnection_cell(specs: t.Sequence[Scenario]) -> str:
    parts = []
    durations = _swept(specs, "disconnection_hours")
    if durations:
        parts.append(f"D {_fmt(durations)} h")
    counts = _swept(specs, "disconnected_clients")
    if counts:
        parts.append(f"V {_fmt(counts)}")
    return "; ".join(parts) or "none"


def table1_rows() -> list[dict[str, str]]:
    """One row per paper experiment: the values each dimension takes."""
    groups: dict[str, list[PaperExperiment]] = {}
    for experiment in PAPER_EXPERIMENTS:
        if experiment.figure is not None:
            groups.setdefault(experiment.number, []).append(experiment)
    rows = []
    for number, group in groups.items():
        specs = [spec for experiment in group for spec in experiment.specs()]
        figures = "+".join(str(experiment.figure) for experiment in group)
        rows.append(
            {
                "experiment": f"#{number} (Fig {figures})",
                "G": _fmt(_values(specs, "granularity")),
                "A": _heat_cell(specs),
                "Q": _fmt(_values(specs, "query_kind")),
                "R_disk": _fmt(_values(specs, "replacement")),
                "P": _fmt(_values(specs, "arrival")),
                "U": _update_cell(specs, number),
                "D/V": _disconnection_cell(specs),
            }
        )
    return rows


def render_scenarios() -> str:
    """Plain-text listing of the registered scenarios."""
    entries = scenarios()
    name_width = max(len(s.name) for s in entries)
    lines = []
    for scenario in entries:
        cells = 1
        for dimension in scenario.sweep:
            cells *= len(dimension.values)
        lines.append(
            f"{scenario.name.ljust(name_width)}  "
            f"{cells:>3} cells x {scenario.replications} reps  "
            f"warm-up {scenario.warmup_fraction:.0%}  "
            f"{scenario.title}"
        )
    return "\n".join(lines)


def render_table1() -> str:
    """Plain-text rendering of Table 1."""
    rows = table1_rows()
    columns = ["experiment", "G", "A", "Q", "R_disk", "P", "U", "D/V"]
    widths = {
        column: max(len(column), max(len(row[column]) for row in rows))
        for column in columns
    }
    lines = [
        "  ".join(column.ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[column].ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
