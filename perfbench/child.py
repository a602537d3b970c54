"""One measurement in a fresh interpreter; prints one JSON line.

Usage (the benchmark runs this; the argument is a JSON request)::

    python3 perfbench/child.py '{"mode": "run", "workload": {...}, "seed": 0}'

Modes:

``setup``
    Time importing ``repro`` plus building the workload: constructing
    ``Simulation(config)``, or building a sweep's replication plan.
``run``
    ``setup``, then time the run itself (``Simulation.run()`` or
    ``run_scenario(...)``) and report its peak RSS and outputs.
``trace``
    Run once with every layer probe installed (``profile=True``; a
    sweep runs serially in this process so the probes apply) and report
    the per-layer metrics, corrected for the tracer's own bookkeeping
    per span as calibrated on a probed no-op.  Spans are written under
    ``perfbench/out``.
``trace-parallel``
    Run a sweep with only its parallel-executor boundary probed, for the
    experiment-layer metrics.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
import typing as t
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _peak_rss_mb(include_children: bool) -> float:
    """Peak resident memory in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak = max(peak, children)
    return peak / 1024.0


def _untraced(request: dict[str, t.Any]) -> dict[str, t.Any]:
    workload, seed = request["workload"], request["seed"]
    started = time.perf_counter()
    if workload["kind"] == "single":
        from repro import Simulation
        from repro.experiments.parallel import config_key

        config = wl.single_config(workload, seed)
        simulation = Simulation(config)
        setup_s = time.perf_counter() - started
        if request["mode"] == "setup":
            return {"setup_s": setup_s}
        began = time.perf_counter()
        result = simulation.run()
        run_s = time.perf_counter() - began
        return {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": _peak_rss_mb(include_children=False),
            "config_key": config_key(config),
            "outputs": wl.single_outputs(result),
        }
    from repro.experiments.parallel import config_key

    scenario, plan = wl.sweep_plan(workload, seed)
    descriptors = plan.descriptors()
    setup_s = time.perf_counter() - started
    if request["mode"] == "setup":
        return {"setup_s": setup_s}
    began = time.perf_counter()
    result = wl.run_sweep(workload, scenario, seed, request["jobs"])
    run_s = time.perf_counter() - began
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(include_children=True),
        "config_key": wl.digest(
            [config_key(descriptor.config) for descriptor in descriptors]
        ),
        "outputs": wl.sweep_outputs(result),
    }


def _traced(request: dict[str, t.Any]) -> dict[str, t.Any]:
    import layers
    from tracer import Tracer, calibrate

    workload, seed = request["workload"], request["seed"]
    parallel_only = request["mode"] == "trace-parallel"
    spans_path = None if parallel_only else Path(request["spans_path"])
    tracer = Tracer(spans_path, bucket_of=layers.process_bucket)
    if not parallel_only:
        tracer.span_cost = calibrate(layers.process_bucket)
    with tracer:
        if parallel_only:
            tracer.install(layers.experiments_parallel_probes())
        else:
            tracer.install(layers.probes())
        if workload["kind"] == "single":
            from repro import Simulation

            simulation = Simulation(
                wl.single_config(workload, seed, profile=True)
            )
            # The layer table covers the run alone, not the set-up.
            setup_seconds = layers.layer_self_seconds(tracer)
            began = time.perf_counter()
            result = simulation.run()
            run_s = time.perf_counter() - began
            outputs = wl.single_outputs(result)
        else:
            scenario, __ = wl.sweep_plan(workload, seed)
            setup_seconds = layers.layer_self_seconds(tracer)
            began = time.perf_counter()
            result = wl.run_sweep(
                workload,
                scenario,
                seed,
                request["jobs"] if parallel_only else 1,
                extra_base=None if parallel_only else {"profile": True},
            )
            run_s = time.perf_counter() - began
            outputs = wl.sweep_outputs(result)
    reply: dict[str, t.Any] = {"run_s": run_s, "outputs": outputs}
    counters = tracer.counters
    if parallel_only:
        reply["elapsed_s_sum"] = counters["experiments.elapsed"]
        reply["jobs"] = counters["experiments.jobs"]
        return reply
    reply["queries"] = counters.get("queries", 0.0)
    reply["metrics"] = layers.layer_metrics(tracer)
    reply["layer_seconds"] = {
        layer: seconds - setup_seconds[layer]
        for layer, seconds in layers.layer_self_seconds(tracer).items()
    }
    reply["spans"] = tracer.spans_written
    reply["span_cost_ns"] = {
        name: value * 1e9
        for name, value in dataclasses.asdict(tracer.span_cost).items()
    }
    return reply


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if request["mode"] in ("setup", "run"):
        reply = _untraced(request)
    else:
        reply = _traced(request)
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    # Bypass interpreter teardown: the measured process has reported,
    # and freeing a large object graph only adds wall time.
    code = main(sys.argv)
    os._exit(code)
