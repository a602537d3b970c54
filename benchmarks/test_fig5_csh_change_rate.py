"""Figure 5 — adaptivity versus the CSH change rate (Experiment #4).

LRU, LRU-3, LRD and EWMA-0.5 on the changing-skewed-heat pattern with
hot-set change rates of 300/500/700 queries.  The paper's finding:
recency-based schemes hold their own when the hot set changes fast,
while EWMA-0.5 pulls ahead once the change rate slows past 500.

A hot-set era lasts 8-19 *hours* of client time at these change rates,
so the crossover only materialises at the paper-scale horizon
(REPRO_FULL=1); the reduced run still regenerates the full grid and
checks coarse sanity.
"""

from conftest import full_scale, horizon
from repro.experiments.tables import paper_figure

FIGURE = paper_figure(5)


def test_fig5_change_rates(figure_bench):
    hours = horizon(12.0)
    table = figure_bench(
        lambda: FIGURE.run(horizon_hours=hours)
    )
    print()
    print(FIGURE.render(table))

    assert len(table.rows) == 12
    for row in table.rows:
        assert 0.1 < row.hit_ratio < 0.95
        assert row.response_time > 0

    # Faster change rates can only hurt (or leave unchanged) a policy's
    # hit ratio.
    for policy in table.dimension_values("policy"):
        fast = table.value("hit_ratio", policy=policy, change_rate=300)
        slow = table.value("hit_ratio", policy=policy, change_rate=700)
        assert fast <= slow + 0.05

    if full_scale():
        # The paper's crossover: EWMA-0.5 best at slow change rates.
        ewma = table.value(
            "hit_ratio", policy="ewma-0.5", change_rate=700
        )
        assert ewma >= table.value(
            "hit_ratio", policy="lru", change_rate=700
        )
        assert ewma >= table.value(
            "hit_ratio", policy="lrd", change_rate=700
        )
