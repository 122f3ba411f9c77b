"""Unit tests for latency metrics, message stats and the impact mapping."""

import pytest

from repro.errors import ReproError
from repro.metrics import (
    GNUTELLA_KINDS,
    PAPER_TABLE2,
    agreement_rate,
    compare_with_paper,
    delay_percentiles,
    gnutella_table_row,
    impact_symbol,
)


class TestLatencyMetrics:
    def test_delay_percentiles(self):
        d = delay_percentiles(list(range(1, 101)))
        assert d["p50"] == pytest.approx(50.5)
        assert d["p99"] > d["p90"] > d["p50"]
        with pytest.raises(ReproError):
            delay_percentiles([])

    def test_fractional_percentiles_get_distinct_keys(self):
        # regression: f"p{int(p)}" collapsed 99 and 99.9 onto one "p99"
        # key, silently dropping whichever was computed first
        d = delay_percentiles(list(range(1, 1001)), (50, 99, 99.9))
        assert set(d) == {"p50", "p99", "p99.9"}
        assert d["p99.9"] > d["p99"]
        with pytest.raises(ReproError):
            delay_percentiles([1.0, 2.0], (99, 99.0))

class TestMessageStats:
    def test_table_row_extracts_kinds(self):
        counts = {"PING": 5, "PONG": 50, "QUERY": 7, "QUERYHIT": 2, "OTHER": 9}
        row = gnutella_table_row(counts)
        assert set(row) == set(GNUTELLA_KINDS)
        assert row["PONG"] == 50


class TestImpact:
    def test_symbol_thresholds(self):
        assert impact_symbol(0.5) == "++"
        assert impact_symbol(0.1) == "+"
        assert impact_symbol(0.01) == "o"
        assert impact_symbol(-0.4) == "o"

    def test_symbol_custom_thresholds(self):
        assert impact_symbol(0.1, big=0.08, small=0.01) == "++"
        with pytest.raises(ReproError):
            impact_symbol(0.1, big=0.01, small=0.08)

    def test_paper_table_shape(self):
        assert set(PAPER_TABLE2) == {
            "download_time", "delay", "isp_oam", "isp_costs",
            "new_applications", "resilience",
        }
        for row in PAPER_TABLE2.values():
            assert set(row) == {
                "isp_location", "latency", "geolocation", "peer_resources"
            }
            assert set(row.values()) <= {"++", "+", "o"}

    def test_compare_with_paper(self):
        measured = {"download_time": {"isp_location": 0.5, "latency": 0.0}}
        cells = compare_with_paper(measured)
        assert len(cells) == 2
        by_col = {c.info_type: c for c in cells}
        assert by_col["isp_location"].matches        # ++ vs ++
        assert by_col["latency"].matches             # o vs o
        assert agreement_rate(cells) == 1.0

    def test_within_one_step(self):
        cells = compare_with_paper({"delay": {"latency": 0.1}})  # + vs ++
        assert not cells[0].matches
        assert cells[0].within_one_step

    def test_unknown_row_col_rejected(self):
        with pytest.raises(ReproError):
            compare_with_paper({"bogus": {"latency": 0.1}})
        with pytest.raises(ReproError):
            compare_with_paper({"delay": {"bogus": 0.1}})
        with pytest.raises(ReproError):
            agreement_rate([])
