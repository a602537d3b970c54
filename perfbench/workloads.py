"""Benchmark workloads and the digest of their simulated outputs.

``workloads.json`` beside this file holds, per workload, its config,
why it was chosen and which end-to-end metric each per-layer metric
should move.  This module turns a workload and a seed into the call the
benchmark times, and a finished run into the outputs its digest covers.

Nothing here imports ``repro`` at module level: the benchmark imports
this module before it starts timing a fresh interpreter's set-up.
"""

from __future__ import annotations

import hashlib
import json
import typing as t
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS: dict[str, dict[str, t.Any]] = SPEC["workloads"]
DIGESTS_PATH = HERE / "digests.json"


def load_digests() -> dict[str, dict[str, str]]:
    """Recorded digests: workload name -> seed (as text) -> digest."""
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def sweep_jobs(workload: dict[str, t.Any], cpus: int) -> int:
    """Worker count of a sweep: at most one per CPU."""
    return max(1, min(int(workload["max_jobs"]), cpus))


def single_config(workload: dict[str, t.Any], seed: int, **extra: t.Any):
    """The ``SimulationConfig`` of a single-run workload."""
    from repro import SimulationConfig

    return SimulationConfig(seed=seed, **workload["config"], **extra)


def sweep_plan(workload: dict[str, t.Any], seed: int):
    """The sweep's scenario and its replication plan (the set-up)."""
    from repro.experiments.scenarios import ReplicationPlan, get_scenario

    scenario = get_scenario(workload["scenario"])
    extra = {"invariants": True} if workload["invariants"] else None
    plan = ReplicationPlan(
        scenario,
        replications=workload["replications"],
        horizon_hours=workload["horizon_hours"],
        seed=seed,
        extra_base=extra,
    )
    return scenario, plan


def run_sweep(
    workload: dict[str, t.Any],
    scenario: t.Any,
    seed: int,
    jobs: int,
    extra_base: "dict[str, t.Any] | None" = None,
):
    """``run_scenario`` exactly as the workload defines it."""
    from repro.experiments.scenarios import run_scenario

    return run_scenario(
        scenario,
        replications=workload["replications"],
        horizon_hours=workload["horizon_hours"],
        seed=seed,
        jobs=jobs,
        invariants=workload["invariants"],
        extra_base=extra_base,
    )


def single_outputs(result: t.Any) -> dict[str, t.Any]:
    """The simulated outputs of one run that its digest covers."""
    summary = result.summary
    return {
        "summary": {
            "total_queries": summary.total_queries,
            "total_accesses": summary.total_accesses,
            "hit_ratio": summary.hit_ratio,
            "response_time": summary.response_time,
            "error_rate": summary.error_rate,
            "disconnected_error_rate": summary.disconnected_error_rate,
            "total_retries": summary.total_retries,
            "total_timeouts": summary.total_timeouts,
            "total_degraded_queries": summary.total_degraded_queries,
            "total_late_replies": summary.total_late_replies,
            "total_lost_updates": summary.total_lost_updates,
            "total_goodput_bytes": summary.total_goodput_bytes,
            "total_bytes_sent": summary.total_bytes_sent,
        },
        "requests_served": result.requests_served,
        "events_processed": result.events_processed,
        "event_counts": dict(sorted(result.event_counts.items())),
    }


def sweep_outputs(result: t.Any) -> dict[str, t.Any]:
    """The sweep's outputs: its deterministic result envelope."""
    return result.envelope()


def headline(kind: str, outputs: dict[str, t.Any]) -> dict[str, float]:
    """Simulated hit ratio and response time, printed beside the
    metrics (query-weighted over the cells for a sweep)."""
    if kind == "single":
        summary = outputs["summary"]
        return {
            "hit_ratio": summary["hit_ratio"],
            "response_time_s": summary["response_time"],
        }
    records = outputs["records"]
    weights = [record["queries"] for record in records]
    total = sum(weights) or 1.0
    return {
        "hit_ratio": sum(
            w * r["hit_ratio"] for w, r in zip(weights, records, strict=True)
        )
        / total,
        "response_time_s": sum(
            w * r["response_time"]
            for w, r in zip(weights, records, strict=True)
        )
        / total,
    }


def violations(kind: str, outputs: dict[str, t.Any]) -> int:
    """Invariant violations plus failed runs reported in the outputs."""
    if kind == "single":
        return 0
    metadata = outputs["metadata"]
    return int(metadata.get("invariant_violations") or 0) + len(
        outputs["failures"]
    )


def digest(outputs: dict[str, t.Any]) -> str:
    """SHA-256 of the outputs' canonical JSON (floats by ``repr``)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(
    kind: str, outputs: dict[str, t.Any], expected: "str | None"
) -> "str | None":
    """Why a run's outputs are wrong, or ``None`` when they pass.

    A run fails when it reports invariant violations or failed cells,
    or when its digest differs from ``expected`` (the digest recorded
    for this workload and seed, when there is one).
    """
    found = violations(kind, outputs)
    if found:
        return f"{found} invariant violation(s) or failed run(s)"
    actual = digest(outputs)
    if expected is not None and actual != expected:
        return f"digest {actual[:16]} != expected {expected[:16]}"
    return None
