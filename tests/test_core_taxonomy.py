"""Unit tests for the Table 1 registry."""

import importlib

from repro.collection import UnderlayInfoType
from repro.core import TABLE1_SYSTEMS, systems_by_type


def test_registry_covers_all_info_types():
    types = {s.info_type for s in TABLE1_SYSTEMS}
    assert types == set(UnderlayInfoType)


def test_paper_row_counts():
    # Table 1 lists 9+ ISP-location, 9 latency, 2 geolocation, 2 resources
    assert len(systems_by_type(UnderlayInfoType.ISP_LOCATION)) >= 9
    assert len(systems_by_type(UnderlayInfoType.LATENCY)) >= 8
    assert len(systems_by_type(UnderlayInfoType.GEOLOCATION)) == 2
    assert len(systems_by_type(UnderlayInfoType.PEER_RESOURCES)) == 3


def test_every_implemented_module_importable():
    for s in TABLE1_SYSTEMS:
        importlib.import_module(s.implemented_by)


def test_every_entry_has_reference_and_technique():
    for s in TABLE1_SYSTEMS:
        assert s.reference.startswith("[")
        assert s.technique
        assert s.implemented_by.startswith("repro.")


def test_unique_names():
    names = [s.name for s in TABLE1_SYSTEMS]
    assert len(names) == len(set(names))
