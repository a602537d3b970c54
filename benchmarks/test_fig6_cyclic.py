"""Figure 6 — the cyclic access pattern (Experiment #4, second half).

LRU, LRU-3, LRD and EWMA-0.5 under the LRU-k stress pattern: a fixed
hot set plus a sequential scan that cycles over the whole database.
The paper's shapes: LRU collapses (the scan flushes its cache), LRU-3
wins big (single-touch scan items are filtered out), and EWMA-0.5 lands
close to LRU-3 and clearly above LRD despite not being designed for the
pattern.
"""

from conftest import horizon
from repro.experiments.tables import paper_figure

FIGURE = paper_figure(6)


def test_fig6_cyclic(figure_bench):
    hours = horizon(8.0)
    table = figure_bench(
        lambda: FIGURE.run(horizon_hours=hours)
    )
    print()
    print(FIGURE.render(table))

    def hit(policy):
        return table.value("hit_ratio", policy=policy)

    # LRU suffers; LRU-3 is clearly better.
    assert hit("lru-3") > hit("lru") + 0.02

    # EWMA-0.5 beats LRD and approaches LRU-3.
    assert hit("ewma-0.5") > hit("lrd")
    assert hit("ewma-0.5") > hit("lru")
    assert hit("ewma-0.5") > hit("lru-3") - 0.10

    # Response times order inversely with hit ratios.
    assert table.value("response_time", policy="lru") > table.value(
        "response_time", policy="lru-3"
    )
