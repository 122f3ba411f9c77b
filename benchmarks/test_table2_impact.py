"""TAB2 bench: the measured impact matrix vs the paper's Table 2."""

import numpy as np

from repro.experiments import print_table, run_table2
from repro.metrics import PAPER_TABLE2


def test_table2_impact_matrix(once):
    result = once(run_table2, n_hosts=200, seed=31)
    print_table(result)
    cells = {(r["parameter"], r["info"]): r for r in result.rows}

    # the ISP-location column — the survey's flagship case — must match
    # the paper on every row
    for param in PAPER_TABLE2:
        cell = cells[(param, "isp_location")]
        assert cell["match"], f"isp_location/{param}: {cell}"

    # signature cells of the other columns.  delay x latency sits on the
    # ++ boundary: its gain is 0.242 at seed 31 and 0.246-0.290 on seeds
    # 1, 7, 11, 23, 29, 42, 101 (EXPERIMENTS.md §TAB2), so it is held to
    # within one step of the paper's ++, not to the symbol
    assert cells[("delay", "latency")]["measured"] in ("+", "++")
    assert cells[("download_time", "peer_resources")]["measured"] == "++"
    assert cells[("new_applications", "geolocation")]["measured"] == "++"
    assert cells[("isp_oam", "peer_resources")]["measured"] == "o"

    # aggregate fidelity: most cells agree, and large disagreements are rare
    match_rate = np.mean([r["match"] for r in result.rows])
    within_one = np.mean([r["within_one"] for r in result.rows])
    assert match_rate >= 0.5
    assert within_one >= 0.7
