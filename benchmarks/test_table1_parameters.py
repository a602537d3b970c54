"""Table 1 — parameter settings of the experiments.

Regenerates the paper's Table 1 from the registered scenarios and
checks it lists exactly the sweeps the code runs.
"""

from repro.experiments.tables import render_table1, table1_rows


def test_table1_regeneration(benchmark):
    text = benchmark(render_table1)
    print()
    print(text)

    rows = table1_rows()
    assert len(rows) == 6
    # Experiment #1 sweeps the four granularities.
    assert rows[0]["G"] == "NC, AC, OC, HC"
    # Experiments #2/#3 sweep the six replacement policies.
    for index in (1, 2):
        for policy in ("lru", "lru-3", "lrd", "mean", "window-10",
                       "ewma-0.5"):
            assert policy in rows[index]["R_disk"]
    # Experiment #5 sweeps U and beta.
    assert "0.1, 0.3, 0.5" in rows[4]["U"]
    assert "-1.0" in rows[4]["U"]
    # Experiment #6 sweeps D and V.
    assert "D " in rows[5]["D/V"]
    assert "V " in rows[5]["D/V"]
