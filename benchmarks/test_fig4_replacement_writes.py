"""Figure 4 — replacement policies with writes (Experiment #3).

Same sweep as Figure 3 under U = 0.1 with 10 clients.  Shapes: hit
ratios drop versus the read-only case (expired items must be
re-fetched), and Bursty responses exceed Poisson's because results
queue on the shared downlink during bursts.
"""

from conftest import horizon
from repro import SimulationConfig, run_simulation
from repro.experiments.tables import paper_figure

FIGURE = paper_figure(4)


def test_fig4_replacement_writes(figure_bench):
    hours = horizon(4.0)
    table = figure_bench(
        lambda: FIGURE.run(horizon_hours=hours)
    )
    print()
    print(FIGURE.render(table))

    # Writes depress hit ratios: compare the EWMA cell against a
    # read-only twin run at the same horizon.
    with_writes = table.value(
        "hit_ratio",
        policy="ewma-0.5", heat="SH", query_kind="AQ", arrival="poisson",
    )
    read_only = run_simulation(
        SimulationConfig(
            granularity="HC",
            replacement="ewma-0.5",
            update_probability=0.0,
            horizon_hours=hours,
        )
    ).hit_ratio
    assert with_writes < read_only

    # Bursty responses exceed Poisson's, most visibly for NQ.  Only
    # assertable once the horizon reaches the first 07:00 burst; shorter
    # smoke horizons sit entirely in the overnight lull.
    if hours >= 10.0:
        for policy in table.dimension_values("policy"):
            poisson = table.value(
                "response_time",
                policy=policy, heat="SH", query_kind="NQ",
                arrival="poisson",
            )
            bursty = table.value(
                "response_time",
                policy=policy, heat="SH", query_kind="NQ",
                arrival="bursty",
            )
            assert bursty > poisson

    # Every policy still clears a sane hit-ratio band under writes.
    for row in table.filter(query_kind="AQ", arrival="poisson").rows:
        assert 0.15 < row.hit_ratio < 0.9
