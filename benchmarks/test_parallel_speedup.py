"""Smoke benchmark: the parallel executor actually scales.

Runs a reduced-horizon slice of Experiment #1 serially and with one
worker per core, checks the pool produces byte-identical rows, and
asserts a conservative speedup floor.  Skipped on single-core machines,
where a process pool can only add overhead.
"""

import os
import time

import pytest

from conftest import horizon
from repro.experiments.tables import paper_figure

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="speedup needs at least 2 cores",
)


def test_parallel_speedup_smoke():
    jobs = os.cpu_count() or 1
    figure = paper_figure(2)

    started = time.perf_counter()
    serial = figure.run(horizon_hours=horizon(0.5), jobs=1)
    serial_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    parallel = figure.run(horizon_hours=horizon(0.5), jobs=jobs)
    parallel_elapsed = time.perf_counter() - started

    assert serial.rows == parallel.rows
    speedup = serial_elapsed / parallel_elapsed
    print(
        f"\njobs={jobs}: serial {serial_elapsed:.1f}s, "
        f"parallel {parallel_elapsed:.1f}s, speedup {speedup:.2f}x"
    )
    # Conservative floor: spawn startup and result pickling eat into the
    # ideal jobs-fold speedup, but with >= 2 cores and 32 runs the pool
    # must still clearly win.
    floor = min(1.5, 0.5 * jobs)
    assert speedup >= floor, (
        f"parallel sweep only {speedup:.2f}x faster "
        f"(floor {floor:.2f}x with jobs={jobs})"
    )
