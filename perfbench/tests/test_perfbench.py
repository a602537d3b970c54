"""Tests of the benchmark itself: metric names, digests, trace hygiene.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers
import pytest
import run
import workloads as wl
from tracer import Probe, Tracer, calibrate, read_spans

from repro import Simulation, SimulationConfig

ROOT = Path(__file__).resolve().parents[2]

#: Small stand-ins for the real workloads, same shapes and code paths.
TINY_SINGLE = {"kind": "single", "config": {"horizon_hours": 0.05}}
TINY_SWEEP = {
    "kind": "sweep",
    "scenario": "exp7-bursts",
    "replications": 1,
    # Just past the first 1800 s time-series bucket, so the scenario's
    # 10% warm-up leaves a measurement window.
    "horizon_hours": 0.6,
    "invariants": True,
    "max_jobs": 2,
}


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in run.BENCHMARK[section]]


# ----------------------------------------------------------------------
# Printed metric names
# ----------------------------------------------------------------------
def test_end_to_end_names_match_benchmark_json(capsys):
    session = run.Session("tiny-single", TINY_SINGLE, seed=3)
    result = run.report(session, run.measure(session, 0.0), "end_to_end")
    assert list(result["metrics"]) == _names("end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = capsys.readouterr().out
    for name in _names("end_to_end"):
        assert name in printed
        assert result["metrics"][name]["value"] > 0


def test_per_layer_names_match_benchmark_json_for_single_runs():
    session = run.Session("tiny-single", TINY_SINGLE, seed=3)
    result = run.report(session, run.measure_traced(session), "per_layer")
    assert list(result["metrics"]) == _names("per_layer")
    assert result["correct"] and result["attempted"] == 2
    assert result["metrics"]["core.cache.lookups_per_query"]["value"] > 0


def test_per_layer_names_match_benchmark_json_for_sweeps():
    session = run.Session("tiny-sweep", TINY_SWEEP, seed=3)
    metrics = run.measure_traced(session)
    result = run.report(session, metrics, "per_layer")
    assert list(result["metrics"]) == _names("per_layer")
    assert result["correct"]
    assert metrics["analysis.invariants_us_per_query"] > 0
    assert metrics["analysis.invariant_violations"] == 0
    assert metrics["experiments.run_elapsed_s_sum"] > 0
    assert 0 < metrics["experiments.parallel_efficiency"] <= 1.5


def test_workload_spec_names_and_mapping_match_benchmark_json():
    assert [w["name"] for w in run.BENCHMARK["workloads"]] == list(
        wl.WORKLOADS
    )
    per_layer = set(_names("per_layer"))
    end_to_end = set(_names("end_to_end"))
    mapped = set(wl.SPEC["must_not_move"]) | set(wl.SPEC["context"])
    for workload in wl.WORKLOADS.values():
        assert set(workload["moves"]) <= end_to_end
        for metrics in workload["moves"].values():
            assert set(metrics) <= per_layer
            mapped |= set(metrics)
    assert mapped == per_layer


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-aq",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def test_digest_outputs_match_the_regression_pins():
    # Same configuration and values as
    # tests/integration/test_regression_pins.py.
    result = Simulation(SimulationConfig(horizon_hours=2.0)).run()
    summary = wl.single_outputs(result)["summary"]
    assert summary["total_queries"] == 736
    assert summary["hit_ratio"] == pytest.approx(
        0.42774003623188406, abs=1e-12
    )
    assert summary["response_time"] == pytest.approx(
        1.9377924475364128, abs=1e-9
    )
    assert summary["error_rate"] == pytest.approx(
        0.033627717391304345, abs=1e-12
    )


def test_digest_check_rejects_a_perturbed_result():
    result = Simulation(SimulationConfig(horizon_hours=0.05)).run()
    outputs = wl.single_outputs(result)
    expected = wl.digest(outputs)
    assert wl.judge("single", outputs, expected) is None
    perturbed = json.loads(json.dumps(outputs))
    hit = perturbed["summary"]["hit_ratio"]
    perturbed["summary"]["hit_ratio"] = math.nextafter(hit, 1.0)
    assert wl.judge("single", perturbed, expected) is not None
    perturbed = json.loads(json.dumps(outputs))
    perturbed["event_counts"]["CacheAccess"] += 1
    assert wl.judge("single", perturbed, expected) is not None


def test_sweep_outputs_with_violations_fail_without_a_recorded_digest():
    outputs = {
        "metadata": {"invariant_violations": 1},
        "records": [],
        "failures": [],
    }
    assert wl.judge("sweep", outputs, None) is not None
    outputs["metadata"]["invariant_violations"] = 0
    assert wl.judge("sweep", outputs, None) is None
    outputs["failures"].append({"label": "x"})
    assert wl.judge("sweep", outputs, None) is not None


def test_recorded_digests_cover_every_workload():
    recorded = wl.load_digests()
    assert set(recorded) == set(wl.WORKLOADS)
    for seeds in recorded.values():
        assert seeds and all(len(d) == 64 for d in seeds.values())


# ----------------------------------------------------------------------
# Trace hygiene
# ----------------------------------------------------------------------
def _originals(probes):
    found = []
    for probe in probes:
        if isinstance(probe.owner, type):
            found.append((probe.owner, probe.attr, vars(probe.owner)[probe.attr]))
        else:
            for module in list(sys.modules.values()):
                value = getattr(module, probe.attr, None)
                if value is getattr(probe.owner, probe.attr):
                    found.append((module, probe.attr, value))
    return found


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    config = SimulationConfig(horizon_hours=0.05)
    untraced = wl.single_outputs(Simulation(config).run())
    probes = layers.probes()
    originals = _originals(probes)
    tracer = Tracer(tmp_path / "t.spans", bucket_of=layers.process_bucket)
    with tracer:
        tracer.install(probes)
        traced = wl.single_outputs(
            Simulation(config.replaced(profile=True)).run()
        )
    # Tracing observes; it never changes what the simulation computes.
    assert wl.digest(traced) == wl.digest(untraced)
    assert sum(tracer.calls) > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    calls = list(tracer.calls)
    Simulation(config).run()
    assert tracer.calls == calls


def test_spans_nest_and_layers_partition_the_traced_time(tmp_path):
    path = tmp_path / "t.spans"
    tracer = Tracer(path, bucket_of=layers.process_bucket)
    tracer.span_cost = calibrate(layers.process_bucket, calls=2000, rounds=3)
    with tracer:
        tracer.install(layers.probes())
        simulation = Simulation(
            SimulationConfig(horizon_hours=0.05, profile=True)
        )
        before = layers.layer_self_seconds(tracer)
        began = time.perf_counter()
        simulation.run()
        run_s = time.perf_counter() - began
    after = layers.layer_self_seconds(tracer)
    assert set(after) == {*layers.LAYERS, layers.TRACING}
    covered = sum(after[row] - before[row] for row in after)
    assert 0 < covered <= run_s
    assert after["client"] > 0 and after["core"] > 0
    assert after[layers.TRACING] > 0

    # The correction only moves time into the tracing row: without it
    # the layers cover the same total.
    cost, tracer.span_cost = tracer.span_cost, type(tracer.span_cost)()
    raw = layers.layer_self_seconds(tracer)
    assert raw[layers.TRACING] == 0
    assert sum(raw.values()) == pytest.approx(sum(after.values()))
    assert raw["client"] > after["client"]
    assert raw["sim"] > after["sim"]
    tracer.span_cost = cost

    names, columns = read_spans(path)
    assert len(columns["name"]) == tracer.spans_written == sum(tracer.calls)
    by_id = {
        span_id: index for index, span_id in enumerate(columns["span_id"])
    }
    for index, parent_id in enumerate(columns["parent_id"]):
        if parent_id < 0:
            continue
        parent = by_id[parent_id]
        assert columns["start"][parent] <= columns["start"][index]
        assert columns["end"][index] <= columns["end"][parent]
    serve = names.index("oodb.serve:DatabaseServer.serve")
    keyed = [
        i for i, name in enumerate(columns["name"]) if name == serve
    ]
    assert keyed and all(columns["query"][i] > 0 for i in keyed)


def test_calibrated_span_cost_matches_a_probed_no_op_call():
    cost = calibrate(layers.process_bucket, calls=5000, rounds=5)
    assert 0 < cost.inner < 1e-4
    assert 0 < cost.outer < 1e-4
    assert cost.outer_step >= cost.outer * 0.5

    class Owner:
        client_id = 0

        def leaf(self):
            return None

        def loop(self, count):
            for __ in range(count):
                self.leaf()

    calls = 20_000
    owner = Owner()
    began = time.perf_counter()
    owner.loop(calls)
    untraced = time.perf_counter() - began
    tracer = Tracer()
    tracer.install(
        [
            Probe(Owner, "loop", "core.test_loop"),
            Probe(Owner, "leaf", "core.test_leaf", layers._self_client),
        ]
    )
    try:
        began = time.perf_counter()
        owner.loop(calls)
        traced = time.perf_counter() - began
    finally:
        tracer.uninstall()
    tracer.span_cost = cost
    assert tracer.child_calls == [calls, 0]
    assert tracer.nested == [calls, 0]
    # The tracing row accounts for most of what the probes added.
    added = traced - untraced
    charged = layers.layer_self_seconds(tracer)[layers.TRACING]
    assert 0.5 * added < charged < 1.5 * added


def test_generator_functions_get_one_span_per_resumption():
    tracer = Tracer()

    class Owner:
        def steps(self, count):
            for index in range(count):
                received = yield index
                assert received == index * 10
            return "done"

    tracer.install([Probe(Owner, "steps", "test.gen")])
    try:
        generator = Owner().steps(3)
        value = next(generator)
        with pytest.raises(StopIteration) as stop:
            while True:
                value = generator.send(value * 10)
        assert stop.value.value == "done"
    finally:
        tracer.uninstall()
    assert tracer.calls == [4]
    assert "steps" in vars(Owner) and not hasattr(
        vars(Owner)["steps"], "__wrapped__"
    )
