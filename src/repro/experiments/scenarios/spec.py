"""Declarative scenario specifications.

A *scenario* is the unit of replicated experimentation: a name, a base
:class:`~repro.experiments.config.SimulationConfig` override set, the
swept dimensions (expanded as a cartesian product in declaration order),
a default replication count and a warm-up fraction.  Scenarios are plain
data — a dict (or a TOML table) validated into a frozen
:class:`Scenario` — so the full experiment grid is inspectable without
executing anything, and both the replicated runs and the paper's
single-run figure tables are built from the very same specs.

Spec format (dict keys / TOML table entries)::

    {
        "title": "Figure 2: caching granularity",
        "experiment_id": "exp1",          # envelope/record tag
        "description": "...",             # optional prose
        "base": {"replacement": "ewma-0.5", ...},   # config overrides
        "sweep": [                        # outermost..innermost loops
            {"name": "query_kind", "values": ["AQ", "NQ"]},
            {"name": "granularity", "values": ["NC", "AC"]},
            # "field" defaults to "name"; set it when the reported
            # dimension drives a differently-named config field:
            {"name": "policy", "field": "replacement", "values": [...]},
        ],
        "dims_order": ["granularity", "query_kind"],  # display order
        "const_dims": {"disconnected_clients": 5},    # label-only dims
        "scaled_fields": {"disconnection_hours": 0.8},# cap at f*horizon
        "replications": 1,
        "warmup_fraction": 0.0,
        "horizon_hours": None,            # None -> default horizon
    }

``scaled_fields`` exists for sweeps whose physical durations must fit
into reduced horizons (Experiment #6): the named config field is capped
at ``fraction * horizon`` while the *dimension label* keeps the paper's
nominal value.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ScenarioError
from repro.experiments.config import SimulationConfig, default_horizon_hours

#: Config field names a spec may override or sweep.
_CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(SimulationConfig)
)
#: Fields the scenario machinery owns; specs must not set them directly.
_RESERVED_FIELDS = frozenset({"seed", "horizon_hours"})


@dataclasses.dataclass(frozen=True)
class Dimension:
    """One swept dimension: a reported name driving one config field."""

    name: str
    values: tuple[t.Any, ...]
    field: str = ""

    @property
    def config_field(self) -> str:
        return self.field or self.name

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("dimension name must be non-empty")
        if not self.values:
            raise ScenarioError(
                f"dimension {self.name!r} sweeps no values"
            )
        if len(set(map(repr, self.values))) != len(self.values):
            raise ScenarioError(
                f"dimension {self.name!r} repeats a value"
            )
        _check_field(self.config_field, f"dimension {self.name!r}")


def _check_field(field: str, where: str) -> None:
    if field in _RESERVED_FIELDS:
        raise ScenarioError(
            f"{where} sets reserved field {field!r} (the runner owns "
            f"seed and horizon_hours)"
        )
    if field not in _CONFIG_FIELDS:
        raise ScenarioError(
            f"{where} references unknown SimulationConfig field {field!r}"
        )


@dataclasses.dataclass(frozen=True)
class Cell:
    """One experiment cell: reported dimensions plus config overrides."""

    dims: tuple[tuple[str, t.Any], ...]
    overrides: tuple[tuple[str, t.Any], ...]

    def dims_dict(self) -> dict[str, t.Any]:
        return dict(self.dims)

    def key(self) -> str:
        """Stable content key of the cell, independent of declaration
        order (dimension names are sorted)."""
        return "|".join(
            f"{name}={value!r}" for name, value in sorted(self.dims)
        )


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A validated, frozen scenario specification."""

    name: str
    title: str
    experiment_id: str
    description: str = ""
    base: tuple[tuple[str, t.Any], ...] = ()
    sweep: tuple[Dimension, ...] = ()
    dims_order: tuple[str, ...] = ()
    const_dims: tuple[tuple[str, t.Any], ...] = ()
    scaled_fields: tuple[tuple[str, float], ...] = ()
    replications: int = 1
    warmup_fraction: float = 0.0
    horizon_hours: "float | None" = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if not self.sweep:
            raise ScenarioError(
                f"scenario {self.name!r} sweeps no dimensions"
            )
        for field, __ in self.base:
            _check_field(field, f"scenario {self.name!r} base")
        seen: set[str] = set()
        for dimension in self.sweep:
            dimension.validate()
            if dimension.name in seen:
                raise ScenarioError(
                    f"scenario {self.name!r} repeats dimension "
                    f"{dimension.name!r}"
                )
            seen.add(dimension.name)
        for name, __ in self.const_dims:
            if name in seen:
                raise ScenarioError(
                    f"scenario {self.name!r} const dim {name!r} clashes "
                    f"with a swept dimension"
                )
            seen.add(name)
        for name in self.dims_order:
            if name not in seen:
                raise ScenarioError(
                    f"scenario {self.name!r} dims_order names unknown "
                    f"dimension {name!r}"
                )
        for field, fraction in self.scaled_fields:
            _check_field(field, f"scenario {self.name!r} scaled_fields")
            if not 0.0 < fraction <= 1.0:
                raise ScenarioError(
                    f"scenario {self.name!r} scale fraction for "
                    f"{field!r} must lie in (0, 1], got {fraction!r}"
                )
        if self.replications < 1:
            raise ScenarioError(
                f"scenario {self.name!r} needs replications >= 1, got "
                f"{self.replications!r}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ScenarioError(
                f"scenario {self.name!r} warm-up fraction must lie in "
                f"[0, 1) — a warm-up covering the whole horizon leaves "
                f"nothing to measure — got {self.warmup_fraction!r}"
            )
        if self.horizon_hours is not None and self.horizon_hours <= 0:
            raise ScenarioError(
                f"scenario {self.name!r} horizon must be positive, got "
                f"{self.horizon_hours!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, name: str, spec: t.Mapping[str, t.Any]) -> "Scenario":
        """Validate a dict/TOML-shaped spec into a frozen scenario."""
        known = {
            "title", "experiment_id", "description", "base", "sweep",
            "dims_order", "const_dims", "scaled_fields", "replications",
            "warmup_fraction", "horizon_hours",
        }
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ScenarioError(
                f"scenario {name!r} has unknown spec keys: "
                f"{', '.join(unknown)}"
            )
        raw_sweep = spec.get("sweep", ())
        sweep = []
        for entry in raw_sweep:
            extra = sorted(set(entry) - {"name", "field", "values"})
            if extra:
                raise ScenarioError(
                    f"scenario {name!r} sweep entry has unknown keys: "
                    f"{', '.join(extra)}"
                )
            sweep.append(
                Dimension(
                    name=entry.get("name", ""),
                    field=entry.get("field", ""),
                    values=tuple(entry.get("values", ())),
                )
            )
        try:
            return cls(
                name=name,
                title=str(spec.get("title", name)),
                experiment_id=str(spec.get("experiment_id", name)),
                description=str(spec.get("description", "")),
                base=tuple(dict(spec.get("base", {})).items()),
                sweep=tuple(sweep),
                dims_order=tuple(spec.get("dims_order", ())),
                const_dims=tuple(dict(spec.get("const_dims", {})).items()),
                scaled_fields=tuple(
                    dict(spec.get("scaled_fields", {})).items()
                ),
                replications=int(spec.get("replications", 1)),
                warmup_fraction=float(spec.get("warmup_fraction", 0.0)),
                horizon_hours=(
                    None
                    if spec.get("horizon_hours") is None
                    else float(spec["horizon_hours"])
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"scenario {name!r} spec is malformed: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def cells(self) -> list[Cell]:
        """Expand the sweep product, outermost dimension first."""
        expanded: list[list[tuple[str, t.Any]]] = [[]]
        for dimension in self.sweep:
            expanded = [
                partial + [(dimension.name, value)]
                for partial in expanded
                for value in dimension.values
            ]
        field_of = {d.name: d.config_field for d in self.sweep}
        cells = []
        for assignment in expanded:
            dims = dict(assignment)
            dims.update(self.const_dims)
            if self.dims_order:
                ordered = {
                    name: dims[name]
                    for name in self.dims_order
                    if name in dims
                }
                ordered.update(
                    (k, v) for k, v in dims.items() if k not in ordered
                )
                dims = ordered
            overrides = tuple(
                (field_of[name], value) for name, value in assignment
            )
            cells.append(
                Cell(dims=tuple(dims.items()), overrides=overrides)
            )
        return cells

    def resolve_horizon(self, horizon_hours: "float | None") -> float:
        """The caller's horizon, else the spec's, else the default."""
        if horizon_hours is not None:
            return horizon_hours
        return self.horizon_hours or default_horizon_hours()

    def build_config(
        self,
        cell: Cell,
        horizon_hours: float,
        seed: int,
        extra_base: "t.Mapping[str, t.Any] | None" = None,
    ) -> SimulationConfig:
        """The full config of one cell at a given horizon and seed."""
        values: dict[str, t.Any] = dict(self.base)
        if extra_base:
            for field in extra_base:
                _check_field(
                    field, f"scenario {self.name!r} extra overrides"
                )
            values.update(extra_base)
        values.update(cell.overrides)
        for field, fraction in self.scaled_fields:
            if field in values:
                values[field] = min(
                    values[field], fraction * horizon_hours
                )
        return SimulationConfig(
            horizon_hours=horizon_hours, seed=seed, **values
        )


def load_toml(path: str) -> dict[str, Scenario]:
    """Load scenario specs from a TOML file.

    Each top-level table is one scenario keyed by its name::

        [my-sweep]
        title = "..."
        base = { granularity = "HC" }
        sweep = [ { name = "beta", values = [-1.0, 0.0, 1.0] } ]
    """
    import tomllib

    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid TOML in {path}: {exc}") from exc
    scenarios = {}
    for name, spec in data.items():
        if not isinstance(spec, dict):
            raise ScenarioError(
                f"{path}: top-level key {name!r} is not a scenario table"
            )
        scenarios[name] = Scenario.from_dict(name, spec)
    return scenarios
