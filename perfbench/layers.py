"""The probe table for each layer under ``src/repro/`` and the per-layer
metrics derived from a traced run.

Layers are the top-level packages of ``repro``.  Each probe wraps one
public function at a layer boundary; its span group starts with the
layer's name (``core.cache.admit`` belongs to ``core``).  The client
layer has no probe of its own: its self time is the kernel profiler's
``client`` bucket (``profile=True``) minus the spans the client's
resumptions open into other layers.

Self and inclusive times are corrected for the tracer's own bookkeeping
(:class:`tracer.SpanCost`, calibrated per traced run): the cost each
span adds inside its window and inside its parent's window is taken
off that layer and reported as the ``tracing`` row instead.

Importing this module imports ``repro``; the caller puts ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import typing as t

from repro.analysis.invariants.engine import InvariantEngine
from repro.core import coherence, prefetch, storage_cache
from repro.core.replacement import ReplacementPolicy
from repro.experiments import parallel, runner
from repro.experiments.scenarios import plan, run
from repro.metrics.collectors import MetricsSink
from repro.net import channel, faults, network
from repro.obs.bus import EventBus
from repro.obs.profiler import bucket_for
from repro.oodb import database, server, storage
from repro.sim.environment import Environment
from repro.workload.arrivals import ArrivalProcess
from repro.workload.queries import QueryWorkload
from tracer import Probe, Tracer

#: Layers in table order: the kernel first, then the caller-to-callee
#: path of one query, then the observers and the experiment runner.
LAYERS = (
    "sim",
    "client",
    "core",
    "oodb",
    "net",
    "workload",
    "obs",
    "metrics",
    "analysis",
    "experiments",
)

#: The row of the layer table that holds the tracer's own bookkeeping.
TRACING = "tracing"

US = 1e6


def process_bucket(env: t.Any) -> str:
    """The profiler bucket of the process ``env`` is resuming now."""
    process = env.active_process
    return bucket_for(process.name if process is not None else "")


def _bucket_layer(bucket: str) -> str:
    if bucket == "client":
        return "client"
    if bucket.startswith("server"):
        return "oodb"
    return "sim"


# ----------------------------------------------------------------------
# Span keys: (client_id, query_id) where the arguments expose them
# ----------------------------------------------------------------------
def _self_client(args: tuple) -> tuple[int | None, int | None]:
    return args[0].client_id, None


def _request_key(args: tuple) -> tuple[int | None, int | None]:
    request = args[1]
    return request.client_id, request.query_id


def _next_query_key(args: tuple) -> tuple[int | None, int | None]:
    return args[0].client_id, args[1]


def _event_key(args: tuple) -> tuple[int | None, int | None]:
    event = args[1]
    return getattr(event, "client_id", None), getattr(event, "query_id", None)


# ----------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans
# ----------------------------------------------------------------------
def _on_lookup(tracer: Tracer, args: tuple, entry: t.Any) -> None:
    if entry is not None:
        tracer.add("cache.found")


def _on_admit(tracer: Tracer, args: tuple, evicted: list) -> None:
    tracer.add("cache.evicted", len(evicted))


def _on_serve(tracer: Tracer, args: tuple, served: tuple) -> None:
    reply, trailer, __ = served
    items = len(reply.items) + (len(trailer.items) if trailer else 0)
    tracer.add("serve.items", items)


def _on_next_query(tracer: Tracer, args: tuple, query: t.Any) -> None:
    tracer.add("workload.accesses", len(query.accesses))


def _on_simulation_run(tracer: Tracer, args: tuple, result: t.Any) -> None:
    """Fold one finished simulation's outputs into the run totals."""
    simulation = args[0]
    add = tracer.add
    add("runs")
    add("queries", result.summary.total_queries)
    add("events", result.events_processed)
    add("requests", result.requests_served)
    add("retries", result.retries)
    add("degraded", result.degraded_queries)
    add("drops", result.messages_dropped)
    add("raw_bytes", result.raw_bytes)
    add("goodput_bytes", result.goodput_bytes)
    add("uplink_utilization", result.uplink_utilization)
    add("downlink_utilization", result.downlink_utilization)
    add("buffer_hit_ratio", result.server_buffer_hit_ratio)
    add("bus_events", sum(result.event_counts.values()))
    add("remote_rounds", result.event_counts.get("RemoteRound", 0))
    add(
        "rejections",
        sum(client.cache.rejections for client in simulation.clients),
    )
    if result.invariants is not None:
        add("invariant_violations", result.invariants.total_violations)
    for bucket, row in (result.profile or {}).items():
        add(f"profile.{bucket}", row["seconds"])


def _on_executor_run(tracer: Tracer, args: tuple, outcomes: list) -> None:
    tracer.add("experiments.runs", len(outcomes))
    tracer.add(
        "experiments.elapsed",
        sum(outcome.elapsed_seconds for outcome in outcomes),
    )
    tracer.counters["experiments.jobs"] = args[0].jobs


# ----------------------------------------------------------------------
# The probe table
# ----------------------------------------------------------------------
def _subclasses(base: type) -> list[type]:
    found: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: cls.__qualname__)


def _methods(
    bases: t.Iterable[type], names: t.Iterable[str], group: str
) -> list[Probe]:
    """Probe ``names`` on every class that defines them itself."""
    return [
        Probe(cls, name, group)
        for cls in bases
        for name in names
        if name in cls.__dict__
    ]


def experiments_parallel_probes() -> list[Probe]:
    """The sweep's parallel boundary: one span per executor call.

    The only probe that may wrap a pooled sweep — worker processes
    import the program afresh, so nothing inside them is traced.
    """
    return [
        Probe(
            parallel.ParallelExecutor,
            "run",
            "experiments.parallel",
            on_return=_on_executor_run,
        )
    ]


def probes() -> list[Probe]:
    """Every layer boundary the traced run wraps."""
    cache = storage_cache.ClientStorageCache
    return [
        Probe(Environment, "step", "sim.step", step=True),
        Probe(Environment, "run", "sim.run"),
        # core
        Probe(cache, "lookup", "core.cache.lookup", _self_client, _on_lookup),
        Probe(cache, "touch", "core.cache.lookup", _self_client),
        Probe(cache, "admit", "core.cache.admit", _self_client, _on_admit),
        Probe(cache, "invalidate", "core.cache.invalidate", _self_client),
        *_methods(
            _subclasses(ReplacementPolicy),
            ("on_admit", "on_access", "remove", "evict", "should_admit"),
            "core.policy",
        ),
        *_methods(
            [prefetch.AttributeAccessTracker],
            ("record_access", "access_probabilities", "threshold",
             "prefetch_set"),
            "core.prefetch",
        ),
        *_methods(
            [coherence.WriteIntervalStats, coherence.RefreshTimeEstimator],
            ("record_write", "refresh_time", "expiry_deadline"),
            "core.coherence",
        ),
        # oodb
        Probe(
            server.DatabaseServer,
            "serve",
            "oodb.serve",
            _request_key,
            _on_serve,
        ),
        *_methods([storage.StorageModel], ("access", "write"), "oodb.storage"),
        Probe(database, "build_default_database", "oodb.build_database"),
        # net
        Probe(channel.WirelessChannel, "transmit", "net.channel"),
        Probe(channel.ChannelStats, "on_outcome", "net.stats"),
        *_methods(
            [network.Network], ("is_connected", "abort_deadline"), "net.network"
        ),
        Probe(faults.FaultInjector, "should_drop", "net.faults"),
        # workload
        Probe(
            QueryWorkload,
            "next_query",
            "workload.next_query",
            _next_query_key,
            _on_next_query,
        ),
        Probe(QueryWorkload, "new_value_for", "workload.update", _self_client),
        *_methods(
            _subclasses(ArrivalProcess),
            ("next_interarrival",),
            "workload.arrivals",
        ),
        # obs, metrics, analysis
        Probe(EventBus, "emit", "obs.emit", _event_key),
        *_methods(
            [MetricsSink],
            [name for name in vars(MetricsSink) if name.startswith("on_")],
            "metrics.sink",
        ),
        *_methods(
            [InvariantEngine], ("feed", "reconcile"), "analysis.invariants"
        ),
        # experiments
        Probe(runner.Simulation, "__init__", "experiments.setup"),
        Probe(
            runner.Simulation,
            "run",
            "experiments.run",
            on_return=_on_simulation_run,
        ),
        Probe(parallel, "execute_descriptor", "experiments.parallel"),
        *experiments_parallel_probes(),
        Probe(plan.ReplicationPlan, "descriptors", "experiments.scenario"),
        Probe(run, "collect_outcomes", "experiments.scenario"),
    ]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
class _Groups:
    """Calls, inclusive and self seconds summed per span group, less
    the tracer's bookkeeping, which is summed in ``overhead``.

    A span's own cost (``inner``) comes off its self and inclusive
    time, each direct child's ``outer`` cost off its self time, and
    every nested span's full cost off its inclusive time.  Direct
    children of the kernel step are charged to process buckets instead
    (:func:`_bucket_self`).
    """

    def __init__(self, tracer: Tracer) -> None:
        cost = tracer.span_cost
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.calls_by_name: dict[str, int] = {}
        self.overhead = 0.0
        for index, name in enumerate(tracer.names):
            group = name.split(":", 1)[0]
            calls = tracer.calls[index]
            own = calls * cost.inner
            if group == "sim.step":
                children = nested = 0.0
            else:
                children = tracer.child_calls[index] * cost.outer
                nested = tracer.nested[index] * (cost.inner + cost.outer)
            self.overhead += own + children
            self.calls_by_name[name] = self.calls_by_name.get(name, 0) + calls
            self.calls[group] = self.calls.get(group, 0) + calls
            self.inclusive[group] = (
                self.inclusive.get(group, 0.0)
                + tracer.inclusive[index]
                - own
                - nested
            )
            self.self_seconds[group] = (
                self.self_seconds.get(group, 0.0)
                + tracer.self_seconds[index]
                - own
                - children
            )

    def self_of(self, group: str) -> float:
        return self.self_seconds.get(group, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _bucket_overhead(tracer: Tracer) -> dict[str, float]:
    """Tracer bookkeeping inside each process bucket's resumptions."""
    outer = tracer.span_cost.outer_step
    return {
        bucket: calls * outer
        for bucket, calls in tracer.bucket_child_calls.items()
    }


def _bucket_self(tracer: Tracer) -> dict[str, float]:
    """Profiler seconds per process bucket minus spans opened into
    other layers from that bucket's resumptions and the tracer's
    bookkeeping around them."""
    overhead = _bucket_overhead(tracer)
    found = {}
    for key, seconds in tracer.counters.items():
        if key.startswith("profile."):
            bucket = key.split(".", 1)[1]
            found[bucket] = (
                seconds
                - tracer.bucket_child_seconds.get(bucket, 0.0)
                - overhead.get(bucket, 0.0)
            )
    return found


def _step_self(tracer: Tracer, groups: _Groups) -> float:
    """Kernel step time outside every process callback."""
    profiled = sum(
        seconds
        for key, seconds in tracer.counters.items()
        if key.startswith("profile.")
    )
    return groups.inclusive.get("sim.step", 0.0) - profiled


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric a traced run measures directly.

    Per-query figures divide by the queries completed over all traced
    simulations.  ``*_us_per_query`` is self time (children excluded)
    except ``workload.next_query`` and ``analysis.invariants``, which
    are inclusive.  ``core.cache.hit_ratio`` is the share of cache
    lookups that found a resident entry, valid or not; the simulated
    hit ratio is part of the digest instead.  The ``experiments`` and
    ``trace`` metrics need the untraced passes and are filled in by the
    caller.
    """
    counters = tracer.counters
    get = counters.get
    groups = _Groups(tracer)
    queries = get("queries", 0.0)
    runs = get("runs", 0.0)
    buckets = _bucket_self(tracer)

    def per_query(value: float) -> float:
        return _ratio(value, queries)

    def us_per_query(seconds: float) -> float:
        return per_query(seconds) * US

    lookups = groups.calls_by_name.get(
        "core.cache.lookup:ClientStorageCache.lookup", 0
    )
    admits = groups.calls.get("core.cache.admit", 0)
    serves = groups.calls.get("oodb.serve", 0)
    next_queries = groups.calls.get("workload.next_query", 0)
    return {
        "sim.events_per_query": per_query(get("events", 0.0)),
        "sim.step_self_us_per_query": us_per_query(
            _step_self(tracer, groups)
        ),
        "client.self_us_per_query": us_per_query(buckets.get("client", 0.0)),
        "client.remote_rounds_per_query": per_query(get("remote_rounds", 0.0)),
        "client.retries_per_query": per_query(get("retries", 0.0)),
        "client.degraded_ratio": per_query(get("degraded", 0.0)),
        "core.cache.lookups_per_query": per_query(lookups),
        "core.cache.lookup_us_per_query": us_per_query(
            groups.self_of("core.cache.lookup")
        ),
        "core.cache.hit_ratio": _ratio(get("cache.found", 0.0), lookups),
        "core.cache.admits_per_query": per_query(admits),
        "core.cache.admit_us_per_query": us_per_query(
            groups.self_of("core.cache.admit")
        ),
        "core.cache.evictions_per_admit": _ratio(
            get("cache.evicted", 0.0), admits
        ),
        "core.cache.rejections": get("rejections", 0.0),
        "core.policy.us_per_query": us_per_query(
            groups.self_of("core.policy")
        ),
        "core.prefetch.us_per_query": us_per_query(
            groups.self_of("core.prefetch")
        ),
        "core.coherence.us_per_query": us_per_query(
            groups.self_of("core.coherence")
        ),
        "oodb.serve_us_per_query": us_per_query(groups.self_of("oodb.serve")),
        "oodb.items_per_request": _ratio(get("serve.items", 0.0), serves),
        "oodb.buffer_hit_ratio": _ratio(get("buffer_hit_ratio", 0.0), runs),
        "oodb.server_send_us_per_query": us_per_query(
            buckets.get("server-send", 0.0)
        ),
        "oodb.requests_per_query": per_query(get("requests", 0.0)),
        "oodb.build_database_s": _ratio(
            groups.inclusive.get("oodb.build_database", 0.0),
            groups.calls.get("oodb.build_database", 0),
        ),
        "net.uplink_utilization": _ratio(get("uplink_utilization", 0.0), runs),
        "net.downlink_utilization": _ratio(
            get("downlink_utilization", 0.0), runs
        ),
        "net.goodput_ratio": _ratio(
            get("goodput_bytes", 0.0), get("raw_bytes", 0.0)
        ),
        "net.drops_per_query": per_query(get("drops", 0.0)),
        "workload.next_query_us_per_query": us_per_query(
            groups.inclusive.get("workload.next_query", 0.0)
        ),
        "workload.accesses_per_query": _ratio(
            get("workload.accesses", 0.0), next_queries
        ),
        "obs.events_per_query": per_query(get("bus_events", 0.0)),
        "obs.emit_us_per_query": us_per_query(groups.self_of("obs.emit")),
        "metrics.sink_us_per_query": us_per_query(
            groups.self_of("metrics.sink")
        ),
        "analysis.invariants_us_per_query": us_per_query(
            groups.inclusive.get("analysis.invariants", 0.0)
        ),
        "analysis.invariant_violations": get("invariant_violations", 0.0),
    }


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer and the ``tracing`` row; together they
    partition the traced time.

    A span's self time belongs to its group's layer, except the kernel
    step, whose self time splits into the step's own bookkeeping (sim)
    and each process bucket's resumption time outside its child spans.
    The tracer's calibrated bookkeeping is taken off each layer and
    summed in the ``tracing`` row.
    """
    groups = _Groups(tracer)
    seconds = {layer: 0.0 for layer in LAYERS}
    seconds[TRACING] = groups.overhead + sum(
        _bucket_overhead(tracer).values()
    )
    for group, value in groups.self_seconds.items():
        if group != "sim.step":
            seconds[group.split(".", 1)[0]] += value
    seconds["sim"] += _step_self(tracer, groups)
    for bucket, value in _bucket_self(tracer).items():
        seconds[_bucket_layer(bucket)] += value
    return seconds
