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
    overhead_ratio,
    reduction_percent,
    table_reductions,
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

    def test_reduction_percent(self):
        assert reduction_percent(100, 60) == pytest.approx(40.0)
        with pytest.raises(ReproError):
            reduction_percent(0, 1)

    def test_table_reductions_paper_values(self):
        paper_unbiased = {"PING": 7.6, "PONG": 75.5, "QUERY": 6.3, "QUERYHIT": 3.5}
        paper_biased_1000 = {"PING": 4.0, "PONG": 39.1, "QUERY": 2.3, "QUERYHIT": 1.9}
        red = table_reductions(paper_unbiased, paper_biased_1000)
        assert red["PING"] == pytest.approx(47.4, abs=0.1)
        assert red["QUERY"] == pytest.approx(63.5, abs=0.1)

    def test_overhead_ratio(self):
        assert overhead_ratio(50, 100) == 0.5
        with pytest.raises(ReproError):
            overhead_ratio(1, 0)


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
