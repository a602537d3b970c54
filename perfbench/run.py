#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-aq --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload exp7-sweep --seed 0 --seconds 35 --trace 1

Workloads (``perfbench/workloads.json`` holds each one's config, why it
was chosen and which end-to-end metric each layer metric should move):
``paper-aq``, ``nav-writes`` and ``exp7-sweep``.  The seed goes into the
simulation config; the program receives only the config.

Every measurement runs in a fresh interpreter (``perfbench/child.py``):
a second simulation built in the same process pays for freeing the
first one's object graph, and ``ru_maxrss`` is a per-process high-water
mark.

``--trace 0`` prints the end-to-end metrics, each the median over the
repetitions that fit in ``--seconds``:

* ``setup_s`` — importing ``repro`` plus building the simulation (or the
  sweep's replication plan), median over several set-ups;
* ``run_s`` — ``Simulation.run()``, or ``run_scenario(...)`` up to a
  complete envelope;
* ``peak_rss_mb`` — peak resident memory of the run (for the sweep, the
  largest of the parent and its workers).

``--trace 1`` runs the workload once untraced and once with a span
around every public call at each layer boundary, and prints every
per-layer metric, a table of self time per layer and the tracing
overhead.  End-to-end numbers never come from traced runs.

Every run's simulated outputs are digest-checked against
``perfbench/digests.json`` (``perfbench/record.py`` writes it), and all
runs of one seed must agree.  A run that raises, reports an invariant
violation or mismatches its digest counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import typing as t
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up-only interpreters per run, on top of one per timed repetition.
SETUP_SAMPLES = 5
#: Every child must finish inside this budget (the benchmark exits
#: within 180 s of starting).
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    """A measurement interpreter exited non-zero or timed out."""


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def source_id() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def calibrate() -> float:
    """``scripts/kernel_bench.py``'s machine-speed score (context only)."""
    spec = importlib.util.spec_from_file_location(
        "kernel_bench", ROOT / "scripts" / "kernel_bench.py"
    )
    module = importlib.util.module_from_spec(spec)  # type: ignore[arg-type]
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module.calibrate()


class Session:
    """One benchmark invocation: a workload, a seed and a deadline."""

    def __init__(self, name: str, workload: dict[str, t.Any], seed: int):
        self.name = name
        self.workload = workload
        self.kind = workload["kind"]
        self.seed = seed
        self.jobs = (
            wl.sweep_jobs(workload, len(os.sched_getaffinity(0)))
            if self.kind == "sweep"
            else 1
        )
        self.deadline = time.monotonic() + DEADLINE_S
        self.expected = wl.load_digests().get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.source = source_id()

    def child(self, mode: str, **extra: t.Any) -> dict[str, t.Any]:
        """Run one measurement interpreter and return its JSON reply."""
        request = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "jobs": self.jobs,
            **extra,
        }
        # Outputs do not depend on the hash seed; fixing it removes one
        # source of run-to-run variation in dict and set layout.
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except BaseException as error:
            # Timed out or interrupted: the sweep's workers share the
            # child's session, so stop them all and wait for the child.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise ChildError(f"{mode} child timed out") from None
            raise
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-5:])
            raise ChildError(f"{mode} child exited {proc.returncode}: {tail}")
        return json.loads(out.strip().splitlines()[-1])

    def attempt(self, mode: str, **extra: t.Any) -> "dict[str, t.Any] | None":
        """One counted run: measured, then checked; ``None`` if it failed."""
        self.attempted += 1
        began = time.monotonic()
        try:
            reply = self.child(mode, **extra)
        except ChildError as error:
            self.failed += 1
            print(f"run {self.attempted} FAILED: {error}")
            return None
        reply["wall_s"] = time.monotonic() - began
        outputs = reply.pop("outputs")
        reply["digest"] = wl.digest(outputs)
        reply["headline"] = wl.headline(self.kind, outputs)
        problem = wl.judge(self.kind, outputs, self.expected)
        if self.expected is None and problem is None:
            # No recorded digest for this seed: every later run of the
            # seed must reproduce the first one.
            self.expected = reply["digest"]
        self.manifest(mode, reply, problem)
        if problem is not None:
            self.failed += 1
            return None
        return reply

    def manifest(
        self, mode: str, reply: dict[str, t.Any], problem: "str | None"
    ) -> None:
        record = {
            "run": self.attempted,
            "mode": mode,
            "commit": self.source,
            "config_key": reply.get("config_key"),
            "seed": self.seed,
            "wall_s": round(reply["wall_s"], 3),
            "peak_rss_mb": reply.get("peak_rss_mb"),
            "digest": reply["digest"][:16],
            "status": "ok" if problem is None else f"FAILED: {problem}",
        }
        print("manifest " + json.dumps(record))

    def warm(self) -> None:
        """Compile bytecode before any set-up is timed."""
        self.child("setup")


def report(
    session: Session, metrics: dict[str, float], section: str
) -> dict[str, t.Any]:
    names = units(section)
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise KeyError(f"unmeasured {section} metrics: {missing}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
        },
    }


def measure(session: Session, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over the repetitions that fit."""
    session.warm()
    setups = [session.child("setup")["setup_s"] for __ in range(SETUP_SAMPLES)]
    reps: list[dict[str, t.Any]] = []
    walls: list[float] = []
    began = time.monotonic()
    while True:
        rep_began = time.monotonic()
        reply = session.attempt("run")
        walls.append(time.monotonic() - rep_began)
        if reply is not None:
            reps.append(reply)
        elapsed = time.monotonic() - began
        if elapsed + statistics.median(walls) > seconds:
            break
    if not reps:
        raise ChildError("every run failed")
    setups.extend(rep["setup_s"] for rep in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    print(
        f"{session.name} seed {session.seed}: {len(reps)} timed runs, "
        f"{len(setups)} set-ups, jobs {session.jobs}"
    )
    for name, unit in units("end_to_end").items():
        print(f"  {name:<12} {metrics[name]:>10.4f} {unit}")
    simulated = reps[0]["headline"]
    print(
        f"  simulated hit ratio {simulated['hit_ratio']:.6f}, response "
        f"time {simulated['response_time_s']:.6f} s (digest-checked, "
        f"not gated)"
    )
    return metrics


def measure_traced(session: Session) -> dict[str, float]:
    """Per-layer metrics from one traced run beside one untraced run."""
    session.warm()
    spans_path = HERE / "out" / f"{session.name}.spans"
    if session.kind == "single":
        untraced = session.attempt("run")
        traced = session.attempt("trace", spans_path=str(spans_path))
        if untraced is None or traced is None:
            raise ChildError("a traced-run pass failed")
        metrics = dict(traced["metrics"])
        metrics["experiments.run_elapsed_s_sum"] = 0.0
        metrics["experiments.parallel_efficiency"] = 0.0
        metrics["experiments.overhead_s"] = 0.0
        baseline = untraced["run_s"]
    else:
        pooled = session.attempt("trace-parallel")
        traced = session.attempt("trace", spans_path=str(spans_path))
        if pooled is None or traced is None:
            raise ChildError("a traced-run pass failed")
        metrics = dict(traced["metrics"])
        elapsed, jobs = pooled["elapsed_s_sum"], pooled["jobs"]
        metrics["experiments.run_elapsed_s_sum"] = elapsed
        metrics["experiments.parallel_efficiency"] = elapsed / (
            jobs * pooled["run_s"]
        )
        metrics["experiments.overhead_s"] = pooled["run_s"] - elapsed / jobs
        # The traced pass runs the cells serially, so its untraced
        # counterpart is the serial sum of the pooled runs' times.
        baseline = elapsed
    metrics["trace.overhead_ratio"] = traced["run_s"] / baseline
    print_layer_table(session, traced, baseline)
    return metrics


def print_layer_table(
    session: Session, traced: dict[str, t.Any], baseline: float
) -> None:
    queries = traced["queries"]
    run_s = traced["run_s"]
    seconds = traced["layer_seconds"]
    cost = traced["span_cost_ns"]
    print(
        f"traced run: {session.name} seed {session.seed}, "
        f"{queries:.0f} queries, traced run_s {run_s:.3f} s, "
        f"{traced['spans']} spans"
    )
    print(
        f"  tracer cost per span (ns): inner {cost['inner']:.0f}, "
        f"outer {cost['outer']:.0f}, outer under a step "
        f"{cost['outer_step']:.0f}; charged to the tracing row"
    )
    print(f"  {'layer':<12} {'self us/query':>14} {'share of run_s':>15}")
    for layer, value in seconds.items():
        print(
            f"  {layer:<12} {value / queries * 1e6:>14.1f} "
            f"{value / run_s:>15.3f}"
        )
    total = sum(seconds.values())
    print(
        f"  {'total':<12} {total / queries * 1e6:>14.1f} "
        f"{total / run_s:>15.3f}"
    )
    print(
        f"tracing overhead: traced run_s {run_s:.3f} s / untraced "
        f"{baseline:.3f} s = {run_s / baseline:.2f}x"
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated benchmark unwinds through Session.child, which stops
    # the measurement interpreter it is waiting on.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(128 + signal.SIGTERM))
    session = Session(args.workload, wl.WORKLOADS[args.workload], args.seed)
    print(f"calibration: kernel_bench.calibrate() = {calibrate():.4f} s")
    try:
        if args.trace:
            result = report(session, measure_traced(session), "per_layer")
        else:
            result = report(
                session, measure(session, args.seconds), "end_to_end"
            )
    except ChildError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
