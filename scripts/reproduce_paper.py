#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one sweep.

Writes ``results/reproduction.json`` (sweep metadata plus one record
per run, including per-run wall-clock) and ``results/reproduction.txt``
(rendered figure tables).  Horizons are configurable; the defaults trade
simulated time for wall-clock so the whole sweep finishes in under an
hour on one core.  ``--full`` runs everything at the paper's 96
simulated hours (several CPU-hours serially).

Runs are embarrassingly parallel: ``--jobs N`` fans each experiment's
run list over N worker processes (default: all cores) with results
bit-identical to a serial sweep — every run derives all of its random
streams from its own config, so worker count and completion order
cannot perturb a single draw.

Usage::

    python scripts/reproduce_paper.py            # reduced horizons
    python scripts/reproduce_paper.py --full     # paper-scale
    python scripts/reproduce_paper.py --only 1 4 # selected experiments
    python scripts/reproduce_paper.py --jobs 1   # force serial
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.parallel import (  # noqa: E402
    ParallelExecutor,
    resolve_jobs,
)
from repro.experiments.tables import (  # noqa: E402
    PAPER_EXPERIMENTS,
    render_table1,
    select_experiments,
)

#: Reduced horizons per experiment (hours).  Experiment #4's change-rate
#: sweep needs several hot-set eras (an era is 8-19 h of client time at
#: the paper's change rates), so it gets the longest window.
REDUCED_HORIZONS = {
    "exp1": 16.0,
    "exp2": 24.0,
    "exp3": 16.0,
    "exp4_f5": 48.0,
    "exp4_f6": 24.0,
    "exp5": 16.0,
    "exp6": 16.0,
    "exp7": 8.0,
}
FULL_HORIZON = 96.0


def run_experiment(experiment, horizon, seed, progress=True, jobs=None,
                   trace_dir=None):
    """One figure's point runs, optionally exporting a trace per run."""
    descriptors = experiment.descriptors(horizon, seed)
    if trace_dir is not None:
        # One JSONL trace per run, named by sweep position so a re-run
        # with the same arguments overwrites rather than accumulates.
        descriptors = [
            dataclasses.replace(d, config=d.config.replaced(
                trace_path=str(
                    Path(trace_dir) / f"{experiment.key}-{d.index:03d}.jsonl"
                )
            ))
            for d in descriptors
        ]
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    return experiment.table(
        executor.run(experiment.experiment_id, descriptors)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run at the paper's 96 h horizon")
    parser.add_argument("--horizon", type=float, default=None,
                        help="override every experiment's horizon "
                             "(simulated hours; for smoke runs and "
                             "speedup measurements)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiment keys to run "
                             "(1 2 3 4 5 6 7, or exp4_f5 style)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all cores; "
                             "results are identical at any job count)")
    parser.add_argument("--out-dir", default=str(REPO_ROOT / "results"))
    parser.add_argument("--trace-dir", default=None,
                        help="export one JSONL event trace per run into "
                             "this directory (inspect with "
                             "'repro-mobicache trace summarize')")
    args = parser.parse_args()
    jobs = resolve_jobs(os.cpu_count() if args.jobs is None else args.jobs)

    try:
        experiments = (
            select_experiments(args.only) if args.only
            else list(PAPER_EXPERIMENTS)
        )
    except ValueError as error:
        parser.error(str(error))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace_dir is not None:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    records = []
    failures = []
    rendered = [render_table1(), ""]

    started = time.time()
    metadata = {
        "seed": args.seed,
        "jobs": jobs,
        "full": bool(args.full),
        "horizon_override_hours": args.horizon,
        "cpu_count": os.cpu_count(),
        "experiments": [experiment.key for experiment in experiments],
    }

    def flush():
        # Flush incrementally so partial sweeps are still useful.
        metadata["wall_clock_seconds"] = round(time.time() - started, 3)
        (out_dir / "reproduction.json").write_text(
            json.dumps(
                {
                    "metadata": metadata,
                    "records": records,
                    "failures": failures,
                },
                indent=1,
            )
        )
        (out_dir / "reproduction.txt").write_text("\n".join(rendered))

    for experiment in experiments:
        key = experiment.key
        horizon = FULL_HORIZON if args.full else REDUCED_HORIZONS[key]
        if args.horizon is not None:
            horizon = args.horizon
        print(f"=== {key} @ {horizon:g} h (jobs={jobs}) ===",
              file=sys.stderr, flush=True)
        experiment_started = time.time()
        table = run_experiment(
            experiment, horizon, args.seed, jobs=jobs,
            trace_dir=args.trace_dir,
        )
        experiment_elapsed = time.time() - experiment_started
        for row in table.rows:
            record = {"experiment": key, "horizon_hours": horizon}
            record.update(row.dims)
            record.update(
                {
                    "hit_ratio": row.hit_ratio,
                    "response_time": row.response_time,
                    "error_rate": row.error_rate,
                    "disconnected_error_rate": row.disconnected_error_rate,
                    "queries": row.queries,
                    "drops": row.drops,
                    "retries": row.retries,
                    "timeouts": row.timeouts,
                    "degraded": row.degraded,
                    "event_counts": row.event_counts,
                    "elapsed_seconds": round(row.elapsed_seconds, 3),
                }
            )
            records.append(record)
        for failure in table.failures:
            print(f"[{key}] FAILED {failure.label}\n{failure.traceback}",
                  file=sys.stderr, flush=True)
            failures.append(
                {
                    "experiment": key,
                    "label": failure.label,
                    "dims": failure.dims,
                    "traceback": failure.traceback,
                }
            )
        print(f"=== {key} done in {experiment_elapsed:.1f}s "
              f"({len(table.rows)} runs) ===", file=sys.stderr, flush=True)
        rendered.append(experiment.render(table))
        rendered.append("")
        flush()

    elapsed = time.time() - started
    print(f"done in {elapsed / 60:.1f} min with jobs={jobs}; "
          f"results in {out_dir}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
