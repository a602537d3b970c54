"""Unit tests for the figure tables, their point runs and reports."""

from pathlib import Path

import pytest

from repro.experiments import report
from repro.experiments.config import (
    FAST_HORIZON_HOURS,
    FULL_HORIZON_HOURS,
    default_horizon_hours,
)
from repro.experiments.scenarios import (
    ExperimentRow,
    ExperimentTable,
    get_scenario,
    point_descriptors,
)
from repro.experiments.tables import (
    paper_figure,
    render_table1,
    table1_rows,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_table():
    rows = [
        ExperimentRow({"g": "AC", "q": "AQ"}, 0.5, 1.0, 0.01, 100),
        ExperimentRow({"g": "OC", "q": "AQ"}, 0.6, 2.0, 0.02, 100),
        ExperimentRow({"g": "AC", "q": "NQ"}, 0.4, 3.0, 0.03, 100),
    ]
    return ExperimentTable("t", "test table", rows)


def scenario_runs(name, horizon_hours):
    return point_descriptors([get_scenario(name)], horizon_hours)


class TestExperimentTable:
    def test_filter(self):
        table = make_table()
        assert len(table.filter(q="AQ").rows) == 2
        assert len(table.filter(g="AC", q="NQ").rows) == 1

    def test_value_unique(self):
        table = make_table()
        assert table.value("response_time", g="OC", q="AQ") == 2.0
        with pytest.raises(ValueError):
            table.value("hit_ratio", g="AC")

    def test_dimension_values_preserve_order(self):
        assert make_table().dimension_values("g") == ["AC", "OC"]


class TestDefaultHorizon:
    def test_fast_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert default_horizon_hours() == FAST_HORIZON_HOURS

    def test_full_with_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_horizon_hours() == FULL_HORIZON_HOURS


class TestRunSpecs:
    """The figure tables must enumerate exactly the paper's sweeps."""

    def test_exp1_covers_full_grid(self):
        runs = paper_figure(2).descriptors(horizon_hours=1.0)
        assert len(runs) == 4 * 2 * 2 * 2
        labels = {tuple(sorted(run.dims.items())) for run in runs}
        assert len(labels) == len(runs)

    def test_exp2_policies_and_single_client(self):
        runs = paper_figure(3).descriptors(horizon_hours=1.0)
        assert len(runs) == 6 * 2 * 2 * 2
        for run in runs:
            assert run.config.num_clients == 1
            assert run.config.update_probability == 0.0
            assert run.config.granularity == "HC"

    def test_exp3_is_exp2_with_writes(self):
        runs = paper_figure(4).descriptors(horizon_hours=1.0)
        read_only = paper_figure(3).descriptors(horizon_hours=1.0)
        assert [run.dims for run in runs] == [run.dims for run in read_only]
        for run in runs:
            assert run.config.num_clients == 10
            assert run.config.update_probability == 0.1

    def test_exp4_change_rates(self):
        runs = paper_figure(5).descriptors(horizon_hours=1.0)
        assert len(runs) == 4 * 3
        rates = {run.config.csh_change_every for run in runs}
        assert rates == {300, 500, 700}

    def test_exp4_cyclic(self):
        runs = paper_figure(6).descriptors(horizon_hours=1.0)
        assert len(runs) == 4
        assert all(run.config.heat == "cyclic" for run in runs)

    def test_exp5_grid(self):
        runs = paper_figure(7).descriptors(horizon_hours=1.0)
        assert len(runs) == 3 * 3 * 3
        betas = {run.config.beta for run in runs}
        assert betas == {-1.0, 0.0, 1.0}

    def test_exp6_durations_scaled_to_short_horizon(self):
        for run in scenario_runs("exp6-durations", 8.0):
            assert run.config.disconnection_hours <= 8.0
            assert run.config.disconnected_clients == 5
            # Labels keep the paper's D values.
            assert run.dims["duration_hours"] in (1.0, 4.0, 7.0, 10.0)

    def test_exp6_client_count_sweep(self):
        runs = scenario_runs("exp6-client-counts", 8.0)
        counts = {run.config.disconnected_clients for run in runs}
        assert counts == {1, 3, 5, 7, 9}
        # Figure 8 runs both sweeps as one table, durations first.
        figure = paper_figure(8).descriptors(horizon_hours=8.0)
        durations = scenario_runs("exp6-durations", 8.0)
        assert [run.config for run in figure] == [
            run.config for run in durations + runs
        ]
        assert [run.index for run in figure] == list(range(len(figure)))


class TestReports:
    def test_render_rows(self):
        text = report.render_rows(make_table(), ["g", "q"])
        assert "test table" in text
        assert "AC" in text
        assert "50.00%" in text


class TestTable1:
    def test_rows_cover_six_experiments(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert rows[0]["experiment"].startswith("#1")

    def test_render_mentions_key_values(self):
        text = render_table1()
        assert "ewma-0.5" in text
        assert "NC, AC, OC, HC" in text
        assert "0.1, 0.3, 0.5" in text

    def test_matches_committed_reproduction(self):
        """Table 1 heads the committed reproduction text, byte for byte."""
        committed = (REPO_ROOT / "results" / "reproduction.txt").read_text()
        assert committed.startswith(render_table1() + "\n\n")
