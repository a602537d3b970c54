"""Parallel execution engine for experiment sweeps.

The scenario layer declares an ordered list of runs; this module fans
that list out over a ``multiprocessing`` pool.  The engine's
contract, which the determinism test suite locks down:

* **Bit-identical results at any worker count.**  Each run is a pure
  function of its :class:`RunDescriptor` — the config carries the seed,
  and every stream inside the simulation derives from it — so
  ``jobs=8`` produces exactly the rows ``jobs=1`` does, regardless of
  completion order.
* **Declaration order out.**  Workers complete in whatever order the
  scheduler likes; outcomes are re-sorted to the declared run order
  before anyone sees them.
* **Crash isolation.**  A run that raises inside a worker surfaces its
  label and full traceback as a :class:`RunFailure` without killing the
  rest of the sweep.
* **Serial fallback.**  ``jobs=1`` (the default) bypasses the pool
  entirely and executes runs in-process, in order — the exact
  pre-parallel code path.

Worker-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs=0`` means
"all cores" (``os.cpu_count()``).

Every run keeps its config's own seed; the scenario layer
(:mod:`repro.experiments.scenarios`) decides the seeds when it builds
the descriptors, so the executor never touches a random stream.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
import traceback
import typing as t
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro._units import WallSeconds
from repro.experiments.config import SimulationConfig

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_JOBS`` env > 1.

    ``0`` (from either source) means "all cores".  Negative counts are
    rejected.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    return jobs


def config_key(config: SimulationConfig) -> str:
    """A stable content key for a config, independent of its seed.

    Two runs with identical parameters map to the same key no matter
    where they sit in a run list, so the key names a configuration
    (benchmark digests and run-plan pins hash it) and the seed names
    its random streams.
    """
    parts = [
        f"{field.name}={getattr(config, field.name)!r}"
        for field in dataclasses.fields(config)
        if field.name != "seed"
    ]
    return "|".join(parts)


@dataclasses.dataclass(frozen=True)
class RunDescriptor:
    """One run of a sweep, picklable for shipment to a worker process.

    Replaces closure-based run lists: everything a worker needs — the
    dimensions identifying the run and the full config — is plain data.
    ``index`` is the run's position in the declared list and fixes the
    output order.
    """

    index: int
    dims: dict[str, t.Any]
    config: SimulationConfig

    def label(self) -> str:
        return self.config.label()


@dataclasses.dataclass
class RunOutcome:
    """What came back from one run: a result or a formatted traceback."""

    index: int
    dims: dict[str, t.Any]
    label: str
    elapsed_seconds: WallSeconds
    result: t.Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass
class RunFailure:
    """A run that raised inside its worker, with enough context to act on."""

    index: int
    dims: dict[str, t.Any]
    label: str
    traceback: str


def execute_descriptor(descriptor: RunDescriptor) -> RunOutcome:
    """Execute one run, catching any failure into the outcome.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method; imported lazily so descriptor construction stays cheap.
    """
    from repro.experiments.runner import run_simulation

    started = time.perf_counter()  # repro: noqa REP001 -- wall-clock metadata
    try:
        result = run_simulation(descriptor.config)
    except Exception:
        return RunOutcome(
            index=descriptor.index,
            dims=descriptor.dims,
            label=descriptor.label(),
            elapsed_seconds=(
                time.perf_counter()  # repro: noqa REP001 -- wall-clock metadata
                - started
            ),
            error=traceback.format_exc(),
        )
    return RunOutcome(
        index=descriptor.index,
        dims=descriptor.dims,
        label=descriptor.label(),
        elapsed_seconds=(
            time.perf_counter()  # repro: noqa REP001 -- wall-clock metadata
            - started
        ),
        result=result,
    )


class ParallelExecutor:
    """Fan a descriptor list over worker processes; return declared order.

    ``jobs=1`` executes in-process, serially, in declaration order — the
    exact pre-parallel behaviour.  ``jobs>1`` uses a spawn-context
    ``ProcessPoolExecutor`` (spawn is fork-safe on every platform and
    matches what macOS/Windows force anyway).
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress: bool = False,
        stream: t.TextIO | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr

    # ------------------------------------------------------------------
    def run(
        self, experiment_id: str, descriptors: t.Sequence[RunDescriptor]
    ) -> list[RunOutcome]:
        """Execute every descriptor; outcomes come back in declared order."""
        if self.jobs == 1 or len(descriptors) <= 1:
            return self._run_serial(experiment_id, descriptors)
        return self._run_pool(experiment_id, descriptors)

    # ------------------------------------------------------------------
    def _report(
        self,
        experiment_id: str,
        outcome: RunOutcome,
        done: int,
        total: int,
    ) -> None:
        if not self.progress:
            return
        status = "" if outcome.ok else " FAILED"
        print(
            f"[{experiment_id}] run {done}/{total}: {outcome.label}"
            f" ({outcome.elapsed_seconds:.1f}s{status})",
            file=self.stream,
            flush=True,
        )
        if outcome.error is not None:
            print(outcome.error, file=self.stream, flush=True)

    def _run_serial(
        self, experiment_id: str, descriptors: t.Sequence[RunDescriptor]
    ) -> list[RunOutcome]:
        outcomes = []
        for done, descriptor in enumerate(descriptors, start=1):
            outcome = execute_descriptor(descriptor)
            self._report(experiment_id, outcome, done, len(descriptors))
            outcomes.append(outcome)
        return outcomes

    def _run_pool(
        self, experiment_id: str, descriptors: t.Sequence[RunDescriptor]
    ) -> list[RunOutcome]:
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(descriptors))
        outcomes: dict[int, RunOutcome] = {}
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            pending = {
                pool.submit(execute_descriptor, descriptor): descriptor
                for descriptor in descriptors
            }
            done = 0
            while pending:
                finished, __ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    descriptor = pending.pop(future)
                    try:
                        outcome = future.result()
                    except Exception:
                        # The worker died outright (e.g. OOM-killed) or
                        # the result failed to unpickle; synthesise a
                        # failure so the sweep keeps going.
                        outcome = RunOutcome(
                            index=descriptor.index,
                            dims=descriptor.dims,
                            label=descriptor.label(),
                            elapsed_seconds=0.0,
                            error=traceback.format_exc(),
                        )
                    done += 1
                    self._report(
                        experiment_id, outcome, done, len(descriptors)
                    )
                    outcomes[outcome.index] = outcome
        return [outcomes[d.index] for d in descriptors]
