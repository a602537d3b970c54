"""Command-line driver: run single simulations or whole experiments.

Examples::

    repro-mobicache table1
    repro-mobicache run --granularity HC --replacement ewma-0.5 --hours 8
    repro-mobicache run --trace out.jsonl --profile --hours 2
    repro-mobicache trace summarize out.jsonl
    repro-mobicache trace summarize out.jsonl --event-type CacheAccess --top 10
    repro-mobicache run --invariants --hours 2
    repro-mobicache check-trace out.jsonl
    repro-mobicache experiment 1 --hours 8
    repro-mobicache experiment all --hours 4
    repro-mobicache scenario list
    repro-mobicache scenario run exp1-granularity --replications 10 --jobs 0
    repro-mobicache list-policies
    repro-mobicache lint src tests
    repro-mobicache lint --format json --select REP001,REP003 src
    repro-mobicache run --determinism-audit --hours 2
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from repro.core.replacement import available_policies
from repro.experiments.config import (
    ARRIVAL_PATTERNS,
    GRANULARITIES,
    HEAT_PATTERNS,
    QUERY_KINDS,
    SimulationConfig,
    default_horizon_hours,
)
from repro.experiments.runner import run_simulation
from repro.experiments.tables import (
    PAPER_EXPERIMENTS,
    render_table1,
    select_experiments,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mobicache",
        description=(
            "Reproduction of 'Cache Management for Mobile Databases' "
            "(Chan, Si & Leong, ICDE 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument("--granularity", choices=GRANULARITIES,
                            default="HC")
    run_parser.add_argument("--replacement", default="ewma-0.5")
    run_parser.add_argument("--query-kind", choices=QUERY_KINDS,
                            default="AQ")
    run_parser.add_argument("--arrival", choices=ARRIVAL_PATTERNS,
                            default="poisson")
    run_parser.add_argument("--heat", choices=HEAT_PATTERNS, default="SH")
    run_parser.add_argument("--update-probability", type=float, default=0.1)
    run_parser.add_argument("--beta", type=float, default=0.0)
    run_parser.add_argument("--clients", type=int, default=10)
    run_parser.add_argument("--disconnected-clients", type=int, default=0)
    run_parser.add_argument("--disconnection-hours", type=float, default=0.0)
    run_parser.add_argument("--hours", type=float, default=None,
                            help="simulated hours (default: 8, or 96 "
                                 "with REPRO_FULL=1)")
    run_parser.add_argument("--seed", type=int, default=42)
    fault_group = run_parser.add_argument_group(
        "fault injection / recovery (Experiment #7)"
    )
    fault_group.add_argument("--loss-rate", type=float, default=0.0,
                             help="per-message drop probability")
    fault_group.add_argument("--burst-loss-rate", type=float, default=0.0,
                             help="drop probability while the channel "
                                  "sits in the BAD burst state")
    fault_group.add_argument("--burst-on", type=float, default=0.0,
                             dest="burst_on_probability",
                             help="GOOD->BAD transition probability")
    fault_group.add_argument("--burst-off", type=float, default=0.0,
                             dest="burst_off_probability",
                             help="BAD->GOOD transition probability")
    fault_group.add_argument("--timeout", type=float, default=0.0,
                             dest="request_timeout_seconds",
                             help="reply-wait timeout in seconds "
                                  "(0 = no recovery)")
    fault_group.add_argument("--retry-budget", type=int, default=0,
                             help="re-sends allowed after a timeout")
    fault_group.add_argument("--backoff", type=float, default=1.0,
                             dest="backoff_base_seconds",
                             help="first retry backoff delay (seconds)")
    obs_group = run_parser.add_argument_group("observability")
    obs_group.add_argument("--trace", default=None, metavar="PATH",
                           dest="trace_path",
                           help="export every bus event as JSON lines "
                                "to PATH (see 'trace summarize')")
    obs_group.add_argument("--profile", action="store_true",
                           help="print a per-subsystem wall-clock "
                                "breakdown of the run")
    obs_group.add_argument("--staleness-timeline", action="store_true",
                           help="print the bucketed age-at-read series")
    obs_group.add_argument("--determinism-audit", action="store_true",
                           help="audit same-instant scheduling ties and "
                                "print the run's trace fingerprint")
    obs_group.add_argument("--invariants", action="store_true",
                           help="run the protocol-invariant checkers "
                                "in-process and print their report")

    trace_parser = sub.add_parser(
        "trace", help="inspect a JSONL event trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    summarize_parser = trace_sub.add_parser(
        "summarize", help="per-type event counts and time span"
    )
    summarize_parser.add_argument("path", help="trace file (.jsonl)")
    summarize_parser.add_argument("--event-type", default=None, metavar="T",
                                  dest="event_type",
                                  help="restrict to one event type and "
                                       "list its hottest objects/clients")
    summarize_parser.add_argument("--top", type=int, default=10, metavar="N",
                                  help="hottest identities to list with "
                                       "--event-type (default: 10)")

    check_parser = sub.add_parser(
        "check-trace",
        help="replay a JSONL trace through the protocol-invariant "
             "checkers (exit 1 on violations)",
    )
    check_parser.add_argument("path", help="trace file (.jsonl)")
    check_parser.add_argument("--format", choices=("text", "json"),
                              default="text", dest="output_format")
    check_parser.add_argument("--max-violations", type=int, default=100,
                              help="violations recorded before further "
                                   "ones are only counted (default: 100)")

    exp_parser = sub.add_parser(
        "experiment", help="run a paper experiment (1-7 or 'all')"
    )
    exp_parser.add_argument("number", help="experiment number 1-7 or 'all'")
    exp_parser.add_argument("--hours", type=float, default=None)
    exp_parser.add_argument("--seed", type=int, default=42)
    exp_parser.add_argument("--jobs", type=int, default=None,
                            help="parallel worker processes (0 = all "
                                 "cores; default: REPRO_JOBS or serial); "
                                 "results are identical at any job count")
    exp_parser.add_argument("--quiet", action="store_true",
                            help="suppress per-run progress on stderr")

    scenario_parser = sub.add_parser(
        "scenario",
        help="replicated scenario runs with confidence intervals",
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_sub.add_parser(
        "list", help="list the registered scenarios"
    )
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario with replications"
    )
    scenario_run.add_argument("name", help="scenario name (see 'list')")
    scenario_run.add_argument("--replications", type=int, default=None,
                              metavar="N",
                              help="independent replications per cell "
                                   "(default: the scenario's own count)")
    scenario_run.add_argument("--hours", type=float, default=None,
                              help="simulated hours per run (default: 8, "
                                   "or 96 with REPRO_FULL=1)")
    scenario_run.add_argument("--seed", type=int, default=42,
                              help="base seed; replication seeds derive "
                                   "from it (default: 42)")
    scenario_run.add_argument("--warmup", type=float, default=None,
                              metavar="FRACTION",
                              help="horizon fraction discarded as "
                                   "warm-up (default: the scenario's)")
    scenario_run.add_argument("--confidence", type=float, default=0.95,
                              help="confidence level for the t-based "
                                   "half-widths (default: 0.95)")
    scenario_run.add_argument("--jobs", type=int, default=None,
                              help="parallel worker processes (0 = all "
                                   "cores; default: REPRO_JOBS or "
                                   "serial); results are identical at "
                                   "any job count")
    scenario_run.add_argument("--invariants", action="store_true",
                              help="run the protocol-invariant checkers "
                                   "in every replication (exit 1 on any "
                                   "violation)")
    scenario_run.add_argument("--spec", default=None, metavar="TOML",
                              help="register extra scenarios from a "
                                   "TOML file before resolving NAME")
    scenario_run.add_argument("--out", default=None, metavar="PATH",
                              help="write the JSON result envelope to "
                                   "PATH")
    scenario_run.add_argument("--quiet", action="store_true",
                              help="suppress per-run progress on stderr")

    sub.add_parser("table1", help="print Table 1 (parameter settings)")
    sub.add_parser("list-policies", help="list replacement policies")

    lint_parser = sub.add_parser(
        "lint",
        help="run the determinism + unit-dataflow + interleave lint "
             "(REP rules) over Python sources",
        description="Exit codes: 0 = clean, 1 = violations found (or, "
                    "with --baseline, new findings / stale baseline "
                    "entries), 2 = parse/config error (unreadable or "
                    "syntactically broken file [REP000], unknown rule "
                    "id, unreadable baseline).",
    )
    lint_parser.add_argument("paths", nargs="*", default=["src"],
                             help="files or directories (default: src)")
    lint_parser.add_argument("--format", choices=("text", "json"),
                             default="text", dest="output_format")
    lint_parser.add_argument("--select", default=None, metavar="IDS",
                             help="comma-separated rule ids to run "
                                  "(default: all)")
    lint_parser.add_argument("--ignore", default=None, metavar="IDS",
                             help="comma-separated rule ids to skip")
    lint_parser.add_argument("--no-dataflow", action="store_true",
                             help="skip the symbol-resolved unit-flow "
                                  "tier (REP011-REP015)")
    lint_parser.add_argument("--no-interleave", action="store_true",
                             help="skip the yield-point CFG tier "
                                  "(REP016-REP021, REP024)")
    lint_parser.add_argument("--baseline", default=None, metavar="FILE",
                             help="only fail on findings not in this "
                                  "baseline snapshot; stale baseline "
                                  "entries also fail (ratchet)")
    lint_parser.add_argument("--write-baseline", default=None,
                             metavar="FILE",
                             help="snapshot current findings to FILE "
                                  "and exit 0 (unless REP000)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalogue and exit")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    hours = args.hours or default_horizon_hours()
    config = SimulationConfig(
        granularity=args.granularity,
        replacement=args.replacement,
        query_kind=args.query_kind,
        arrival=args.arrival,
        heat=args.heat,
        update_probability=args.update_probability,
        beta=args.beta,
        num_clients=args.clients,
        disconnected_clients=args.disconnected_clients,
        disconnection_hours=args.disconnection_hours,
        horizon_hours=hours,
        seed=args.seed,
        loss_rate=args.loss_rate,
        burst_loss_rate=args.burst_loss_rate,
        burst_on_probability=args.burst_on_probability,
        burst_off_probability=args.burst_off_probability,
        request_timeout_seconds=args.request_timeout_seconds,
        retry_budget=args.retry_budget,
        backoff_base_seconds=args.backoff_base_seconds,
        trace_path=args.trace_path,
        profile=args.profile,
        staleness_timeline=args.staleness_timeline,
        determinism_audit=args.determinism_audit,
        invariants=args.invariants,
    )
    result = run_simulation(config)
    print(f"configuration : {config.label()}")
    print(f"horizon       : {hours:g} simulated hours")
    print(f"queries       : {result.summary.total_queries}")
    print(f"hit ratio     : {result.hit_ratio:.2%}")
    print(f"response time : {result.response_time:.3f} s")
    print(f"error rate    : {result.error_rate:.2%}")
    print(f"uplink util   : {result.uplink_utilization:.2%}")
    print(f"downlink util : {result.downlink_utilization:.2%}")
    if config.faults_enabled or config.recovery_enabled:
        print(f"drops         : {result.messages_dropped}")
        print(f"aborts        : {result.messages_aborted}")
        print(f"retries       : {result.retries}")
        print(f"timeouts      : {result.timeouts}")
        print(f"degraded      : {result.degraded_queries}")
        print(f"raw bytes     : {result.raw_bytes:.0f}")
        print(f"goodput bytes : {result.goodput_bytes:.0f}")
    if config.trace_path is not None:
        print(f"trace         : {result.trace_events} events "
              f"-> {config.trace_path}")
    if result.profile is not None:
        print("wall-clock profile:")
        for bucket, cells in result.profile.items():
            print(f"  {bucket:<16} {cells['seconds']:>9.3f} s  "
                  f"{cells['share']:>6.1%}  "
                  f"({cells['calls']:.0f} callbacks)")
    if result.determinism is not None:
        audit = result.determinism
        print(f"determinism   : {audit.summary()}")
        for site in audit.sites:
            if not site.explained:
                processes = ", ".join(site.processes) or "<kernel>"
                print(f"  collision at t={site.time:g} "
                      f"priority={site.priority} [{site.category}] "
                      f"processes: {processes}")
    if config.staleness_timeline:
        print("staleness timeline (age at cache read):")
        for bucket in result.staleness:
            print(f"  t={bucket.start:>8.0f}s reads={bucket.reads:<6d} "
                  f"mean age={bucket.mean_age_seconds:>8.1f}s "
                  f"max={bucket.max_age_seconds:>8.1f}s "
                  f"stale={bucket.stale_fraction:.1%} "
                  f"err={bucket.error_fraction:.1%}")
    if result.invariants is not None:
        print(f"invariants    : {result.invariants.summary()}")
        for violation in result.invariants.violations:
            print(f"  {violation.formatted()}")
        if not result.invariants.ok:
            return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis import (
        all_rules,
        apply_baseline,
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        snapshot_baseline,
    )
    from repro.analysis.engine import PARSE_ERROR_ID

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        baseline = (
            load_baseline(Path(args.baseline)) if args.baseline else None
        )
        findings = lint_paths(
            args.paths,
            select=select,
            ignore=ignore,
            dataflow=not args.no_dataflow,
            interleave=not args.no_interleave,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parse_errors = any(f.rule_id == PARSE_ERROR_ID for f in findings)
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            _json.dumps(snapshot_baseline(findings), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(
            f"baseline written to {args.write_baseline} "
            f"({len(findings)} finding(s))"
        )
        return 2 if parse_errors else 0
    if baseline is not None:
        new, stale = apply_baseline(findings, baseline)
        if args.output_format == "json":
            print(render_json(new))
        else:
            print(render_text(new))
        for key, count in sorted(stale.items()):
            print(
                f"stale baseline entry ({count} unmatched): {key}",
                file=sys.stderr,
            )
        if parse_errors:
            return 2
        return 1 if new or stale else 0
    if args.output_format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    # Exit-code contract (asserted by the CLI tests): 2 = the lint
    # itself could not do its job (unparseable input), 1 = rule
    # violations, 0 = clean.  CI failures are attributable at a glance.
    if parse_errors:
        return 2
    return 1 if findings else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.sinks import summarize_trace, trace_top

    if args.trace_command == "summarize":
        event_types = [args.event_type] if args.event_type else None
        summary = summarize_trace(args.path, event_types=event_types)
        print(f"trace   : {summary['path']}")
        print(f"events  : {summary['events']}")
        if summary["events"]:
            print(f"span    : {summary['first_time']:g} s .. "
                  f"{summary['last_time']:g} s")
        if summary["malformed_lines"]:
            print(f"skipped : {summary['malformed_lines']} malformed "
                  f"line(s)")
        for name, count in summary["counts"].items():
            print(f"  {name:<18} {count}")
        if args.event_type:
            print(f"hottest {args.event_type} identities:")
            for identity, count in trace_top(
                args.path, args.event_type, limit=args.top
            ):
                print(f"  {identity:<40} {count}")
        return 0
    raise SystemExit(2)


def _cmd_check_trace(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.invariants import check_trace

    try:
        result = check_trace(
            args.path, max_violations=args.max_violations
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(json.dumps({
            "path": args.path,
            "ok": result.ok,
            "events_checked": result.events_checked,
            "checkers": list(result.checkers),
            "malformed_lines": result.malformed_lines,
            "unknown_records": result.unknown_records,
            "total_violations": result.total_violations,
            "violations": [
                {
                    "checker_id": v.checker_id,
                    "time": v.time,
                    "scope": v.scope,
                    "message": v.message,
                }
                for v in result.violations
            ],
        }, indent=2))
    else:
        print(f"trace      : {args.path}")
        print(f"invariants : {result.summary()}")
        for violation in result.violations:
            print(f"  {violation.formatted()}")
        if result.dropped_violations:
            print(f"  ... and {result.dropped_violations} more "
                  f"(recording cap)")
    return 0 if result.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.errors import ScenarioError, StatisticsError
    from repro.experiments.report import render_ci_rows
    from repro.experiments.scenarios import (
        get_scenario,
        register_toml,
        run_scenario,
    )
    from repro.experiments.tables import render_scenarios

    if args.scenario_command == "list":
        print(render_scenarios())
        return 0
    if args.scenario_command == "run":
        try:
            if args.spec:
                register_toml(args.spec)
            scenario = get_scenario(args.name)
            result = run_scenario(
                scenario,
                replications=args.replications,
                horizon_hours=args.hours,
                seed=args.seed,
                confidence=args.confidence,
                warmup_fraction=args.warmup,
                jobs=args.jobs,
                progress=not args.quiet,
                invariants=args.invariants,
            )
        except (ScenarioError, StatisticsError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_ci_rows(result))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(result.to_json())
                handle.write("\n")
            print(f"\nenvelope -> {args.out}")
        violations = result.total_invariant_violations
        if violations:
            print(
                f"\ninvariants: {violations} violation(s) across "
                f"{result.replications} replication(s)",
                file=sys.stderr,
            )
            return 1
        return 1 if result.failures else 0
    raise SystemExit(2)


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiments = (
        list(PAPER_EXPERIMENTS)
        if args.number == "all"
        else select_experiments([args.number])
    )
    if not experiments:
        raise SystemExit(
            f"unknown experiment {args.number!r}; use 1-7 or 'all'"
        )
    for experiment in experiments:
        table = experiment.run(
            args.hours, args.seed, jobs=args.jobs, progress=not args.quiet
        )
        print(experiment.render(table))
        print()
    return 0


def main(argv: t.Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "check-trace":
        return _cmd_check_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "table1":
        print(render_table1())
        return 0
    if args.command == "list-policies":
        for name in available_policies():
            print(name)
        return 0
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
