"""Unit tests for the collection taxonomy and overhead accounting."""

from repro.collection import TAXONOMY, OverheadCounter, UnderlayInfoType


def test_taxonomy_covers_all_info_types():
    assert set(TAXONOMY) == set(UnderlayInfoType)
    # Figure 3 edge counts
    assert len(TAXONOMY[UnderlayInfoType.ISP_LOCATION]) == 3
    assert len(TAXONOMY[UnderlayInfoType.LATENCY]) == 2
    assert len(TAXONOMY[UnderlayInfoType.GEOLOCATION]) == 2
    assert len(TAXONOMY[UnderlayInfoType.PEER_RESOURCES]) == 1


def test_overhead_counter_charge():
    c = OverheadCounter()
    c.charge(queries=2, messages=3, bytes_on_wire=100)
    c.charge(bytes_on_wire=50)
    assert (c.queries, c.messages, c.bytes_on_wire) == (2, 3, 150)
