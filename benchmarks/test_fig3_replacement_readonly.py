"""Figure 3 — replacement policies, read-only best case (Experiment #2).

One client, U = 0, HC granularity.  The paper's shapes: on SH the Mean
and EWMA-0.5 duration schemes capture more of the hot set than LRU/LRD;
on CSH the Mean scheme collapses (it never forgets) while EWMA-0.5
adapts best of the paper's schemes; NQ responses are about twice AQ's.
"""

from conftest import full_scale, horizon
from repro.experiments.tables import paper_figure

FIGURE = paper_figure(3)


def test_fig3_replacement_readonly(figure_bench):
    hours = horizon(8.0)
    table = figure_bench(
        lambda: FIGURE.run(horizon_hours=hours)
    )
    print()
    print(FIGURE.render(table))

    def hit(policy, heat="SH", kind="AQ"):
        return table.value(
            "hit_ratio",
            policy=policy,
            heat=heat,
            query_kind=kind,
            arrival="poisson",
        )

    # SH: the duration schemes (Mean/EWMA) beat LRU and LRD.
    assert max(hit("mean"), hit("ewma-0.5")) > hit("lru")
    assert max(hit("mean"), hit("ewma-0.5")) > hit("lrd")

    # NQ responses roughly double AQ's (selectivity doubles).
    for policy in table.dimension_values("policy"):
        aq = table.value(
            "response_time",
            policy=policy, heat="SH", query_kind="AQ", arrival="poisson",
        )
        nq = table.value(
            "response_time",
            policy=policy, heat="SH", query_kind="NQ", arrival="poisson",
        )
        assert nq > 1.4 * aq

    if full_scale():
        # CSH era changes only bite at the 96 h horizon (an era is ~14 h
        # of client time at the default change rate).
        assert hit("mean", heat="CSH") < hit("lru", heat="CSH")
        assert hit("ewma-0.5", heat="CSH") > hit("lru", heat="CSH")
        assert hit("ewma-0.5", heat="CSH") > hit("lrd", heat="CSH")
        assert hit("ewma-0.5", heat="CSH") > hit("mean", heat="CSH")
