"""Plain-text rendering of experiment tables, figure by figure."""

from __future__ import annotations

import typing as t

from repro.experiments.scenarios.run import ExperimentTable

if t.TYPE_CHECKING:
    from repro.experiments.scenarios.run import ScenarioResult

#: Metric -> (column header, formatter).
_METRICS: dict[str, tuple[str, t.Callable[[float], str]]] = {
    "hit_ratio": ("hit", lambda v: f"{v:7.2%}"),
    "response_time": ("resp(s)", lambda v: f"{v:8.3f}"),
    "error_rate": ("err", lambda v: f"{v:7.2%}"),
    "disconnected_error_rate": ("disc-err", lambda v: f"{v:7.2%}"),
    "uplink_bytes": ("up-bytes", lambda v: f"{v:8.0f}"),
    "drops": ("drops", lambda v: f"{v:8d}"),
    "retries": ("retries", lambda v: f"{v:8d}"),
    "timeouts": ("timeouts", lambda v: f"{v:8d}"),
    "degraded": ("degraded", lambda v: f"{v:8d}"),
}


def render_rows(
    table: ExperimentTable,
    dimensions: t.Sequence[str],
    metrics: t.Sequence[str] = ("hit_ratio", "response_time", "error_rate"),
) -> str:
    """Aligned text table: one line per run."""
    header_cells = [d for d in dimensions]
    widths = [
        max(
            len(dimension),
            max(
                (len(str(row.dims.get(dimension, ""))) for row in table.rows),
                default=0,
            ),
        )
        for dimension in header_cells
    ]
    lines = [table.title, ""]
    header = "  ".join(
        cell.ljust(width)
        for cell, width in zip(header_cells, widths, strict=True)
    )
    header += "  " + "  ".join(_METRICS[m][0].rjust(8) for m in metrics)
    lines.append(header)
    lines.append("-" * len(header))
    for row in table.rows:
        cells = "  ".join(
            str(row.dims.get(dimension, "")).ljust(width)
            for dimension, width in zip(header_cells, widths, strict=True)
        )
        values = "  ".join(
            _METRICS[m][1](getattr(row, m)).rjust(8) for m in metrics
        )
        lines.append(f"{cells}  {values}")
    return "\n".join(lines)


#: Metric -> "mean ± half-width" cell formatter for scenario reports.
_CI_FORMATS: dict[str, t.Callable[[float, float], str]] = {
    "hit_ratio": lambda m, h: f"{m:6.2%} ±{h:5.2%}",
    "response_time": lambda m, h: f"{m:7.3f} ±{h:6.3f}",
    "error_rate": lambda m, h: f"{m:6.2%} ±{h:5.2%}",
    "disconnected_error_rate": lambda m, h: f"{m:6.2%} ±{h:5.2%}",
    "uplink_bytes": lambda m, h: f"{m:9.0f} ±{h:7.0f}",
}


def _ci_cell(metric: str, mean: float, half_width: float) -> str:
    formatter = _CI_FORMATS.get(
        metric, lambda m, h: f"{m:9.1f} ±{h:7.1f}"
    )
    return formatter(mean, half_width)


def render_ci_rows(
    result: "ScenarioResult",
    metrics: t.Sequence[str] = (
        "hit_ratio", "response_time", "uplink_bytes",
    ),
) -> str:
    """Aligned text table of a replicated scenario: mean ± half-width.

    One line per cell; the header notes the replication count, warm-up
    fraction and confidence level so a table is self-describing.
    """
    dimensions = (
        list(result.cells[0].dims) if result.cells else []
    )
    widths = [
        max(
            len(dimension),
            max(
                (
                    len(str(cell.dims.get(dimension, "")))
                    for cell in result.cells
                ),
                default=0,
            ),
        )
        for dimension in dimensions
    ]
    cell_widths = [
        max(
            len(_METRICS[m][0]),
            max(
                (
                    len(_ci_cell(m, c.stats[m].mean, c.stats[m].half_width))
                    for c in result.cells
                ),
                default=0,
            ),
        )
        for m in metrics
    ]
    lines = [
        result.scenario.title,
        (
            f"{result.replications} replication(s), "
            f"warm-up {result.warmup_fraction:.0%}, "
            f"{result.confidence:.0%} confidence, "
            f"{result.horizon_hours:g} h horizon"
        ),
        "",
    ]
    header = "  ".join(
        cell.ljust(width)
        for cell, width in zip(dimensions, widths, strict=True)
    )
    header += "  " + "  ".join(
        _METRICS[m][0].rjust(width)
        for m, width in zip(metrics, cell_widths, strict=True)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in result.cells:
        label = "  ".join(
            str(cell.dims.get(dimension, "")).ljust(width)
            for dimension, width in zip(dimensions, widths, strict=True)
        )
        values = "  ".join(
            _ci_cell(
                m, cell.stats[m].mean, cell.stats[m].half_width
            ).rjust(width)
            for m, width in zip(metrics, cell_widths, strict=True)
        )
        lines.append(f"{label}  {values}")
    if result.failures:
        lines.append("")
        lines.append(f"{len(result.failures)} run(s) FAILED:")
        for failure in result.failures:
            lines.append(f"  {failure.label}")
    return "\n".join(lines)
