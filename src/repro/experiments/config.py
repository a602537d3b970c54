"""Simulation configuration: every knob from Section 4 / Table 1.

:class:`SimulationConfig` is the single source of truth a simulation run
is built from; :func:`repro.experiments.runner.run_simulation` consumes
it.  Defaults reproduce the paper's base setting (Experiment #1's HC
column): 10 clients, 2000 objects, 19.2 Kbps channels, EWMA-0.5
replacement, U = 0.1, beta = 0, 96 simulated hours.
"""

from __future__ import annotations

import dataclasses
import os

from repro._units import (
    Bps,
    HOUR,
    Hours,
    KBPS,
    MBPS,
    PerSecond,
    Ratio,
    Seconds,
)
from repro.errors import ConfigurationError

#: Heat pattern labels accepted by :attr:`SimulationConfig.heat`.
HEAT_PATTERNS = (
    "SH", "CSH", "cyclic", "uniform", "scan", "zipf", "hotspot",
)
#: Arrival pattern labels.
ARRIVAL_PATTERNS = ("poisson", "bursty")
#: Query kind labels.
QUERY_KINDS = ("AQ", "NQ")
#: Granularity labels (PC is the conventional page-caching baseline the
#: paper's Section 2 argues against).
GRANULARITIES = ("NC", "AC", "OC", "HC", "PC")

#: The paper's horizon (hours).
FULL_HORIZON_HOURS: Hours = 96.0
#: Default reduced horizon for benchmarks and smoke runs.
FAST_HORIZON_HOURS: Hours = 8.0


def default_horizon_hours() -> Hours:
    """Choose the horizon: paper scale iff ``REPRO_FULL=1`` is set."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return FULL_HORIZON_HOURS
    return FAST_HORIZON_HOURS


@dataclasses.dataclass
class SimulationConfig:
    """All parameters of one simulation run."""

    # -- the seven experimental dimensions ------------------------------
    granularity: str = "HC"
    replacement: str = "ewma-0.5"
    query_kind: str = "AQ"
    arrival: str = "poisson"
    heat: str = "SH"
    update_probability: Ratio = 0.1
    beta: float = 0.0
    disconnected_clients: int = 0
    disconnection_hours: Hours = 0.0

    # -- population and sizing (Section 4) ------------------------------
    num_clients: int = 10
    num_objects: int = 2000
    selectivity: int = 20
    attrs_per_object: int = 3
    server_buffer_objects: int = 500
    client_cache_objects: int = 400
    client_buffer_objects: int = 30
    #: Page size for the PC baseline (4 x 1024 B objects = 4 KB pages).
    objects_per_page: int = 4

    # -- rates and bandwidths --------------------------------------------
    arrival_rate: PerSecond = 0.01
    wireless_bps: Bps = 19.2 * KBPS
    disk_bps: Bps = 40 * MBPS
    memory_bps: Bps = 100 * MBPS

    # -- workload shape ----------------------------------------------------
    hot_fraction: Ratio = 0.2
    hot_access_probability: Ratio = 0.8
    csh_change_every: int = 500
    cyclic_scan_fraction: float = 0.3
    #: Every Nth query of the ``scan`` heat is a full sequential scan.
    scan_every: int = 5
    #: Exponent of the ``zipf`` heat's popularity law.
    zipf_s: float = 0.99
    #: Queries between hot-window slides of the ``hotspot`` heat.
    hotspot_shift_every: int = 500
    attribute_skew: float = 0.8
    #: Cache-table overhead per attribute-grained entry (surrogate slot,
    #: version, refresh deadline).  Object-grained entries already carry
    #: the 64-byte object overhead inside their size.
    attribute_entry_overhead_bytes: int = 40

    # -- coherence / prefetching -----------------------------------------
    prefetch_k_sigma: float = 2.0
    prefetch_floor_at_uniform: bool = True
    #: When True (default), HC prefetches trail the requested items as a
    #: separate downlink message, so they never delay the triggering
    #: query's response.  False merges them into the primary reply (the
    #: naive delivery; see the ablation benchmarks).
    prefetch_split_delivery: bool = True
    #: The Experiment #3 timeout heuristic: drop prefetch trailers when
    #: this many messages queue on the downlink (None = disabled).
    trailer_drop_queue_threshold: "int | None" = None
    #: Coherence strategy: the paper's lazy refresh-time scheme
    #: ("refresh-time") or the broadcast invalidation-report baseline of
    #: reference [2] ("invalidation-report").
    coherence: str = "refresh-time"
    #: Broadcast period of the invalidation-report baseline (seconds).
    ir_interval_seconds: Seconds = 1000.0

    # -- network faults / recovery (Experiment #7) -----------------------
    #: Per-message drop probability on every wireless channel (0 = off).
    loss_rate: float = 0.0
    #: Drop probability while the Gilbert-Elliott chain sits in BAD.
    burst_loss_rate: float = 0.0
    #: Per-message GOOD -> BAD transition probability (0 disables bursts).
    burst_on_probability: float = 0.0
    #: Per-message BAD -> GOOD transition probability.
    burst_off_probability: float = 0.0
    #: Reply-wait timeout before a retry / degradation (0 = no recovery).
    request_timeout_seconds: Seconds = 0.0
    #: Re-sends allowed after the first attempt times out.
    retry_budget: int = 0
    #: First backoff delay; grows by ``backoff_multiplier`` per attempt.
    backoff_base_seconds: Seconds = 1.0
    backoff_multiplier: float = 2.0
    #: Uniform jitter fraction added on top of each backoff delay.
    backoff_jitter: float = 0.5

    # -- observability (all off by default: strict no-op) -----------------
    #: Write every bus event as one JSON line to this path (None = off).
    trace_path: "str | None" = None
    #: Encoded events buffered in memory before a trace-file flush.
    trace_buffer_events: int = 1000
    #: Attach the wall-clock profiler to the kernel's step loop.
    profile: bool = False
    #: Collect the per-bucket age-at-read series (exp5/exp6 dynamics).
    staleness_timeline: bool = False
    #: Bucket width of the staleness timeline (simulated seconds).
    staleness_bucket_seconds: Seconds = 0.5 * HOUR
    #: Attach the scheduling-race auditor to the kernel: record
    #: same-(time, priority) event ties and the order-insensitive trace
    #: fingerprint (see :mod:`repro.analysis.audit`).
    determinism_audit: bool = False
    #: Run the protocol-invariant checkers in-process and attach their
    #: report to the result (see :mod:`repro.analysis.invariants`).
    invariants: bool = False

    # -- run control -------------------------------------------------------
    horizon_hours: Hours = 96.0
    seed: int = 42

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent value."""
        if self.granularity not in GRANULARITIES:
            raise ConfigurationError(
                f"granularity must be one of {GRANULARITIES}, "
                f"got {self.granularity!r}"
            )
        if self.query_kind not in QUERY_KINDS:
            raise ConfigurationError(
                f"query kind must be one of {QUERY_KINDS}, "
                f"got {self.query_kind!r}"
            )
        if self.arrival not in ARRIVAL_PATTERNS:
            raise ConfigurationError(
                f"arrival must be one of {ARRIVAL_PATTERNS}, "
                f"got {self.arrival!r}"
            )
        if self.heat not in HEAT_PATTERNS:
            raise ConfigurationError(
                f"heat must be one of {HEAT_PATTERNS}, got {self.heat!r}"
            )
        if self.scan_every < 1:
            raise ConfigurationError(
                f"scan_every must be >= 1, got {self.scan_every!r}"
            )
        if self.zipf_s <= 0:
            raise ConfigurationError(
                f"zipf_s must be positive, got {self.zipf_s!r}"
            )
        if self.hotspot_shift_every < 1:
            raise ConfigurationError(
                f"hotspot_shift_every must be >= 1, got "
                f"{self.hotspot_shift_every!r}"
            )
        if not 0.0 <= self.update_probability <= 1.0:
            raise ConfigurationError(
                f"update probability out of range: "
                f"{self.update_probability!r}"
            )
        if self.num_clients < 1:
            raise ConfigurationError("need at least one client")
        if self.num_objects < 2:
            raise ConfigurationError("need at least two objects")
        if not 0 <= self.disconnected_clients <= self.num_clients:
            raise ConfigurationError(
                f"disconnected clients must lie in [0, {self.num_clients}], "
                f"got {self.disconnected_clients!r}"
            )
        if self.disconnected_clients and self.disconnection_hours <= 0:
            raise ConfigurationError(
                "disconnected clients need a positive disconnection duration"
            )
        if self.disconnection_hours * HOUR > self.horizon_seconds:
            raise ConfigurationError(
                "disconnection duration exceeds the simulation horizon"
            )
        if self.selectivity < 1 or self.selectivity > self.num_objects:
            raise ConfigurationError(
                f"selectivity must lie in [1, {self.num_objects}], "
                f"got {self.selectivity!r}"
            )
        if self.horizon_hours <= 0:
            raise ConfigurationError(
                f"horizon must be positive, got {self.horizon_hours!r}"
            )
        if self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive, got {self.arrival_rate!r}"
            )
        for name in ("wireless_bps", "disk_bps", "memory_bps"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in (
            "server_buffer_objects",
            "client_cache_objects",
            "client_buffer_objects",
            "objects_per_page",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.coherence not in ("refresh-time", "invalidation-report"):
            raise ConfigurationError(
                f"coherence must be 'refresh-time' or "
                f"'invalidation-report', got {self.coherence!r}"
            )
        if self.ir_interval_seconds <= 0:
            raise ConfigurationError(
                f"IR interval must be positive, got "
                f"{self.ir_interval_seconds!r}"
            )
        for name in (
            "loss_rate",
            "burst_loss_rate",
            "burst_on_probability",
            "burst_off_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must lie in [0, 1], got {value!r}"
                )
        if self.burst_on_probability > 0 and self.burst_off_probability <= 0:
            raise ConfigurationError(
                "burst loss needs a positive burst_off_probability"
            )
        if self.request_timeout_seconds < 0:
            raise ConfigurationError(
                f"request timeout must be >= 0, got "
                f"{self.request_timeout_seconds!r}"
            )
        if self.faults_enabled and not self.recovery_enabled:
            raise ConfigurationError(
                "fault injection needs request_timeout_seconds > 0, or "
                "clients hang forever on a dropped reply"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry budget must be >= 0, got {self.retry_budget!r}"
            )
        if self.retry_budget and not self.recovery_enabled:
            raise ConfigurationError(
                "retries need request_timeout_seconds > 0"
            )
        if self.backoff_base_seconds < 0:
            raise ConfigurationError(
                f"backoff base must be >= 0, got "
                f"{self.backoff_base_seconds!r}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff multiplier must be >= 1, got "
                f"{self.backoff_multiplier!r}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError(
                f"backoff jitter must lie in [0, 1], got "
                f"{self.backoff_jitter!r}"
            )
        if self.trace_buffer_events < 1:
            raise ConfigurationError(
                f"trace buffer must be >= 1 events, got "
                f"{self.trace_buffer_events!r}"
            )
        if self.staleness_bucket_seconds <= 0:
            raise ConfigurationError(
                f"staleness bucket width must be positive, got "
                f"{self.staleness_bucket_seconds!r}"
            )

    # ------------------------------------------------------------------
    @property
    def horizon_seconds(self) -> Seconds:
        return self.horizon_hours * HOUR

    @property
    def disconnection_seconds(self) -> Seconds:
        return self.disconnection_hours * HOUR

    @property
    def faults_enabled(self) -> bool:
        """Whether the fault-injection layer is active at all."""
        return self.loss_rate > 0 or self.burst_on_probability > 0

    @property
    def recovery_enabled(self) -> bool:
        """Whether clients time out (and possibly retry) reply waits."""
        return self.request_timeout_seconds > 0

    def replaced(self, **changes: object) -> "SimulationConfig":
        """A copy with some fields replaced (validates the result)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def label(self) -> str:
        """Compact run label used in reports."""
        parts = [
            self.granularity,
            self.replacement,
            self.query_kind,
            self.arrival,
            self.heat,
            f"U={self.update_probability:g}",
            f"beta={self.beta:g}",
        ]
        if self.disconnected_clients:
            parts.append(
                f"V={self.disconnected_clients}/D={self.disconnection_hours:g}h"
            )
        if self.faults_enabled:
            parts.append(f"loss={self.loss_rate:g}")
            if self.burst_on_probability > 0:
                parts.append(f"burst={self.burst_loss_rate:g}")
        if self.recovery_enabled:
            parts.append(f"retry={self.retry_budget}")
        return " ".join(parts)

    def as_table_rows(self) -> list[tuple[str, str]]:
        """(parameter, value) pairs for the Table 1 emitter."""
        rows: list[tuple[str, str]] = []
        for field in dataclasses.fields(self):
            rows.append((field.name, f"{getattr(self, field.name)}"))
        return rows
