"""Figure 7 — coherence versus update probability and beta (Exp #5).

Error rate, hit ratio and response time for AC/OC/HC across
U in {0.1, 0.3, 0.5} and beta in {-1, 0, 1}.  The paper's shapes:

* OC's error rates exceed AC's and HC's (any-attribute writes poison
  object-grained reads);
* HC's error rates sit at or below AC's (prefetch refreshes);
* errors grow with U and with beta;
* hit ratios grow with beta while response times fall.
"""

from conftest import horizon
from repro.experiments.tables import paper_figure

FIGURE = paper_figure(7)


def test_fig7_coherence(figure_bench):
    hours = horizon(4.0)
    table = figure_bench(
        lambda: FIGURE.run(horizon_hours=hours)
    )
    print()
    print(FIGURE.render(table))

    # OC errors highest, HC at or below AC, wherever object caching
    # actually functions (at beta = -1 with high U the refresh times are
    # so short OC's cache is effectively dead, almost every OC read is
    # served fresh, and its error rate collapses — see EXPERIMENTS.md).
    for beta in (0.0, 1.0):
        point = dict(beta=beta, update_probability=0.1)
        oc = table.value("error_rate", granularity="OC", **point)
        ac = table.value("error_rate", granularity="AC", **point)
        hc = table.value("error_rate", granularity="HC", **point)
        assert oc > ac
        assert oc > hc
        assert hc <= ac + 0.02

    # The U direction is regime-dependent (exposure vs expiry; see the
    # Figure 7 note in EXPERIMENTS.md), so it is printed rather than
    # asserted here; the pinned-seed integration suite checks the
    # exposure-regime instance.  What must always hold: more writes can
    # only destroy hits, never create them.
    for granularity in table.dimension_values("granularity"):
        hits = [
            table.value(
                "hit_ratio",
                granularity=granularity,
                beta=0.0,
                update_probability=u,
            )
            for u in table.dimension_values("update_probability")
        ]
        assert hits == sorted(hits, reverse=True)

    # Larger beta: more hits, more errors, faster responses (U = 0.1).
    for granularity in table.dimension_values("granularity"):
        def metric(name, beta):
            return table.value(
                name,
                granularity=granularity,
                beta=beta,
                update_probability=0.1,
            )

        assert metric("hit_ratio", 1.0) >= metric("hit_ratio", -1.0)
        assert metric("error_rate", 1.0) >= metric("error_rate", -1.0)
        assert metric("response_time", 1.0) <= metric(
            "response_time", -1.0
        ) * 1.05
