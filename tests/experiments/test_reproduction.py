"""The committed reproduction: its run plan, its records, its script.

``results/reproduction.json`` was produced by point runs of the paper's
figure tables.  These tests pin what those runs are (a digest over every
run's key, dims, config and seed), recompute committed records through
today's code, and drive ``scripts/reproduce_paper.py`` end to end.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.parallel import config_key, execute_descriptor
from repro.experiments.tables import PAPER_EXPERIMENTS, select_experiments

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "reproduce_paper.py"
COMMITTED = REPO_ROOT / "results" / "reproduction.json"

#: SHA-256 over every run of Experiments #1-#7 at the script's reduced
#: horizons and seed 42, one JSON line per run:
#: ``[key, dims items, config_key, seed]``.
RUN_PLAN_DIGEST = (
    "98c3fd747f570d2e074fd4a1e2e9270de72ee9f230fae1c620b0c6760d300f56"
)
#: Committed metrics a recomputed record must match exactly.
PINNED_METRICS = (
    "hit_ratio",
    "response_time",
    "error_rate",
    "disconnected_error_rate",
    "queries",
)


def reduced_horizons():
    spec = importlib.util.spec_from_file_location("reproduce_paper", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REDUCED_HORIZONS


def test_run_plan_digest_pinned():
    horizons = reduced_horizons()
    assert list(horizons) == [e.key for e in PAPER_EXPERIMENTS]
    lines = [
        json.dumps(
            [
                experiment.key,
                list(run.dims.items()),
                config_key(run.config),
                run.config.seed,
            ]
        )
        for experiment in PAPER_EXPERIMENTS
        for run in experiment.descriptors(horizons[experiment.key], 42)
    ]
    assert len(lines) == 234
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RUN_PLAN_DIGEST


@pytest.mark.slow
def test_committed_records_recomputed():
    """The first committed record of each experiment, rerun today."""
    committed = json.loads(COMMITTED.read_text())
    seed = committed["metadata"]["seed"]
    firsts = {}
    for record in committed["records"]:
        firsts.setdefault(record["experiment"], record)
    assert len(firsts) >= 7
    for key, record in firsts.items():
        (experiment,) = select_experiments([key])
        runs = experiment.descriptors(record["horizon_hours"], seed)
        (run,) = [
            r for r in runs
            if all(record[name] == value for name, value in r.dims.items())
        ]
        table = experiment.table([execute_descriptor(run)])
        (row,) = table.rows
        for metric in PINNED_METRICS:
            assert getattr(row, metric) == record[metric], (key, metric)


def run_script(out_dir, jobs):
    completed = subprocess.run(
        [
            sys.executable, str(SCRIPT), "--only", "6", "--horizon", "0.25",
            "--jobs", str(jobs), "--out-dir", str(out_dir),
        ],
        capture_output=True,
        text=True,
        check=False,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    envelope = json.loads((out_dir / "reproduction.json").read_text())
    assert envelope["failures"] == []
    records = envelope["records"]
    for record in records:
        record.pop("elapsed_seconds")
    return records


def test_reproduce_script_smoke(tmp_path):
    serial = run_script(tmp_path / "serial", jobs=1)
    pooled = run_script(tmp_path / "pooled", jobs=2)
    assert len(serial) == 27
    assert serial == pooled
