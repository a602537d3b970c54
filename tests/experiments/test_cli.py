"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "#1 (Fig 2)" in out


def test_list_policies(capsys):
    assert main(["list-policies"]) == 0
    out = capsys.readouterr().out
    assert "ewma" in out
    assert "lru" in out


def test_run_short_simulation(capsys):
    code = main(
        [
            "run",
            "--granularity",
            "AC",
            "--hours",
            "0.3",
            "--clients",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hit ratio" in out
    assert "response time" in out


def test_run_with_trace_and_summarize(capsys, tmp_path):
    trace_path = str(tmp_path / "run.jsonl")
    code = main(
        [
            "run",
            "--hours",
            "0.2",
            "--clients",
            "2",
            "--trace",
            trace_path,
            "--profile",
            "--staleness-timeline",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace         :" in out
    assert "wall-clock profile:" in out
    assert "staleness timeline" in out

    assert main(["trace", "summarize", trace_path]) == 0
    summary_out = capsys.readouterr().out
    assert "QueryComplete" in summary_out
    assert "CacheAccess" in summary_out
    # The export and the summary agree on the event total.
    events_line = next(
        line for line in summary_out.splitlines()
        if line.startswith("events")
    )
    total = int(events_line.split(":")[1])
    assert f"trace         : {total} events" in out


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_run_rejects_bad_granularity():
    with pytest.raises(SystemExit):
        main(["run", "--granularity", "ZZ"])


def test_experiment_requires_valid_number():
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", "9", "--hours", "0.1"])
    assert exit_info.value.code == "unknown experiment '9'; use 1-7 or 'all'"


def test_experiment_exits_one_when_a_run_fails(monkeypatch, capsys):
    """A crashed run fails the command and is named on stderr, even
    with --quiet (its table only loses a row)."""
    from repro.experiments import parallel

    real = parallel.execute_descriptor

    def fail_first(descriptor):
        if descriptor.index:
            return real(descriptor)
        return parallel.RunOutcome(
            index=descriptor.index,
            dims=descriptor.dims,
            label=descriptor.label(),
            elapsed_seconds=0.0,
            error="Traceback (most recent call last):\nRuntimeError: boom",
        )

    monkeypatch.setattr(parallel, "execute_descriptor", fail_first)
    code = main(
        ["experiment", "4", "--hours", "0.05", "--quiet", "--jobs", "1"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "Figure 5" in captured.out
    failed = [
        line for line in captured.err.splitlines() if "FAILED" in line
    ]
    assert [line.split()[0] for line in failed] == ["[exp4_f5]", "[exp4_f6]"]
    assert captured.err.count("RuntimeError: boom") == 2


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_experiment_four_smoke(capsys):
    """One full experiment command at a tiny horizon."""
    assert main(["experiment", "4", "--hours", "0.2", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "Figure 6" in out
    assert "ewma-0.5" in out


def test_experiment_six_smoke(capsys):
    assert main(["experiment", "6", "--hours", "0.2", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "disc-err" in out


def test_experiment_jobs_flag_matches_serial(capsys):
    """--jobs N must be invisible in the rendered output."""
    assert main(["experiment", "4", "--hours", "0.2", "--quiet",
                 "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["experiment", "4", "--hours", "0.2", "--quiet",
                 "--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "Figure 5" in parallel_out
