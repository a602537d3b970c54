"""Figure 2 — caching granularity (Experiment #1).

Regenerates the full NC/AC/OC/HC x AQ/NQ x Poisson/Bursty x SH/CSH grid
and checks the paper's headline shapes:

* the no-caching base case is far worse than any storage-caching scheme;
* OC yields higher hit ratios than AC but *also* higher response times
  (blind prefetching over a 19.2 kbps channel);
* HC's response time lands near AC's while its hit ratio approaches OC's;
* CSH trails SH slightly;
* Bursty NQ is the congested corner (the paper's Figure 2h anomaly).
"""

from conftest import full_scale, horizon
from repro.experiments.tables import paper_figure

FIGURE = paper_figure(2)


def test_fig2_granularity(figure_bench):
    hours = horizon(3.0)
    table = figure_bench(
        lambda: FIGURE.run(horizon_hours=hours)
    )
    print()
    print(FIGURE.render(table))

    base = dict(query_kind="AQ", arrival="poisson", heat="SH")
    nc = table.filter(granularity="NC", **base).rows[0]
    ac = table.filter(granularity="AC", **base).rows[0]
    oc = table.filter(granularity="OC", **base).rows[0]
    hc = table.filter(granularity="HC", **base).rows[0]

    # NC is far worse than any storage-caching scheme.
    for cached in (ac, oc, hc):
        assert nc.hit_ratio < cached.hit_ratio / 2
        assert nc.response_time > 2 * cached.response_time

    # OC: more hits than AC, but slower responses.
    assert oc.hit_ratio > ac.hit_ratio - 0.02
    assert oc.response_time > 1.5 * ac.response_time

    # HC: response near AC, far below OC.
    assert hc.response_time < (ac.response_time + oc.response_time) / 2
    assert hc.hit_ratio > ac.hit_ratio - 0.03

    if full_scale():
        # The crisper orderings need the 96 h horizon.
        assert oc.hit_ratio > ac.hit_ratio
        assert hc.hit_ratio > ac.hit_ratio
        assert hc.response_time < 1.3 * ac.response_time

    # CSH trails SH for the caching schemes (hit ratio).
    for granularity in ("AC", "OC", "HC"):
        sh = table.value(
            "hit_ratio",
            granularity=granularity,
            query_kind="AQ",
            arrival="poisson",
            heat="SH",
        )
        csh = table.value(
            "hit_ratio",
            granularity=granularity,
            query_kind="AQ",
            arrival="poisson",
            heat="CSH",
        )
        assert csh <= sh + 0.05

    # Bursty NQ congestion: responses exceed the Poisson NQ ones.  The
    # day profile's first burst starts at 07:00, so this only holds once
    # the horizon reaches it; shorter smoke horizons cover the overnight
    # lull where bursty arrivals are *sparser* than Poisson.
    if hours >= 10.0:
        for granularity in ("AC", "OC", "HC"):
            poisson_nq = table.value(
                "response_time",
                granularity=granularity,
                query_kind="NQ",
                arrival="poisson",
                heat="SH",
            )
            bursty_nq = table.value(
                "response_time",
                granularity=granularity,
                query_kind="NQ",
                arrival="bursty",
                heat="SH",
            )
            assert bursty_nq > poisson_nq
