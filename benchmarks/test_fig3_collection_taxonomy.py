"""FIG3 bench: the measured collection-taxonomy trade-off table."""

from repro.collection import TAXONOMY
from repro.experiments import print_table, run_fig3


def test_fig3_collection_taxonomy(once):
    result = once(run_fig3, n_hosts=80, seed=21)
    print_table(result)
    rows = {r["method"]: r for r in result.rows}
    # one row per Figure 3 edge: the table is TAXONOMY, measured
    edges = {(info.value, m.value) for info, ms in TAXONOMY.items() for m in ms}
    assert {(r["info"], r["method"]) for r in result.rows} == edges
    assert len(result.rows) == len(edges)

    # explicit measurement: near-perfect accuracy but the highest cost per
    # answerable pair; prediction covers every pair from O(n) samples
    ping = rows["explicit-measurements"]
    pred = rows["prediction-methods"]
    assert ping["accuracy"] > 0.9
    assert ping["overhead_bytes"] > pred["overhead_bytes"]
    assert pred["accuracy"] > 0.6

    # GPS: metre-scale accuracy at zero network overhead, partial coverage
    assert rows["gps"]["overhead_bytes"] == 0.0
    assert rows["gps"]["accuracy"] > rows["ip-to-location-mapping"]["accuracy"]
    assert rows["gps"]["coverage"] < rows["ip-to-location-mapping"]["coverage"]

    # oracle finds a hop-optimal candidate for almost everyone
    assert rows["isp-component-in-network"]["accuracy"] > 0.95
    # the IP mapping database is only as good as configured (95%)
    assert 0.85 <= rows["ip-to-isp-mapping"]["accuracy"] <= 1.0
    # Ono-style inference discriminates same-AS from far pairs
    assert rows["cdn-provided-information"]["accuracy"] > 0.2
    # SkyEye recovers the true top-10 capacity peers
    assert rows["information-management-overlay"]["accuracy"] >= 0.9
