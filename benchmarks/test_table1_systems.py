"""TAB1 bench: measure surveyed systems of every Table 1 class."""

import re

from repro.collection import UnderlayInfoType
from repro.core import TABLE1_SYSTEMS, systems_by_type
from repro.experiments import print_table, run_table1


def _refs(text: str) -> set[str]:
    """The bracketed citation keys in ``text``: ``"[17][4]"`` -> both."""
    return set(re.findall(r"\[\d+\]", text))


def test_table1_systems(once):
    result = once(run_table1, n_hosts=80, seed=23)
    print_table(result)
    rows = {r["system"]: r for r in result.rows}

    # registry coverage: the catalogue holds every Table 1 row of the paper
    assert len(TABLE1_SYSTEMS) >= 20
    assert len(systems_by_type(UnderlayInfoType.ISP_LOCATION)) >= 9

    # each row names registry entries of its own information type by
    # their references: the registry is the one copy of Table 1
    covered = set()
    for r in result.rows:
        refs = _refs(r["system"])
        typed = systems_by_type(UnderlayInfoType(r["info"]))
        entries = [e for e in typed if refs & _refs(e.reference)]
        matched = set().union(*(_refs(e.reference) for e in entries))
        assert refs and refs <= matched, r["system"]
        covered.update(e.name for e in entries)
    assert {r["info"] for r in result.rows} == {t.value for t in UnderlayInfoType}
    assert len(covered) == 12

    # ISP-location representatives
    assert rows["Oracle [1]"]["value"] <= 1.0      # top candidate 0-1 AS hops
    assert rows["BNS [3]"]["value"] > 0.05         # transit share cut
    assert rows["Ono [5]"]["value"] > 0.25         # ratio-map signal

    # latency representatives: usable embeddings, PNS gains
    assert rows["Vivaldi [7]"]["value"] < 0.3
    assert rows["ICS [20]"]["value"] < 0.7
    assert rows["GNP/landmarks [26]"]["value"] < 0.4
    assert rows["Proximity in Kademlia [17][4]"]["value"] > 0.05

    # geolocation representative: zone co-members far closer than random
    assert rows["Globase.KOM [19]"]["value"] < 0.6

    # peer-resources representatives
    assert rows["SkyEye.KOM [11]"]["value"] >= 0.9
    assert rows["Bandwidth/capacity-aware roles [6][11]"]["value"] > 0.3
    assert rows["Bandwidth-aware P2P-TV [6]"]["value"] > 0.05
