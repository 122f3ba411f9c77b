"""Unit tests for workload generators."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import CatalogConfig, ContentCatalog


class TestCatalog:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CatalogConfig(n_files=0)
        with pytest.raises(ConfigurationError):
            CatalogConfig(locality_bias=1.5)
        with pytest.raises(ConfigurationError):
            CatalogConfig(topic_slice=0.0)

    def test_popularity_is_zipf_normalised(self):
        cat = ContentCatalog(CatalogConfig(n_files=50, zipf_exponent=1.0), rng=1)
        assert cat.popularity.sum() == pytest.approx(1.0)
        assert cat.popularity[0] > cat.popularity[-1]

    def test_draw_files_distinct_and_in_range(self):
        cat = ContentCatalog(CatalogConfig(n_files=30), rng=2)
        files = cat.draw_files(asn=5, n=10)
        assert len(files) == 10
        assert len(set(files)) == 10
        assert all(0 <= f < 30 for f in files)

    def test_draw_more_than_catalog_caps(self):
        cat = ContentCatalog(CatalogConfig(n_files=5), rng=3)
        assert len(cat.draw_files(0, 50)) == 5

    def test_locality_bias_concentrates_per_as(self):
        biased = ContentCatalog(
            CatalogConfig(n_files=200, locality_bias=0.9, topic_slice=0.1), rng=4
        )
        uniform = ContentCatalog(
            CatalogConfig(n_files=200, locality_bias=0.0), rng=4
        )

        def slice_hit_rate(cat):
            hits = total = 0
            for asn in range(5):
                slice_files = set(int(f) for f in cat._as_slice(asn))
                for _ in range(30):
                    f = cat.draw_query(asn)
                    hits += f in slice_files
                    total += 1
            return hits / total

        assert slice_hit_rate(biased) > slice_hit_rate(uniform) + 0.3

    def test_assign_shared_content(self, small_underlay):
        cat = ContentCatalog(CatalogConfig(n_files=40), rng=5)
        assignment = cat.assign_shared_content(small_underlay.hosts, files_per_host=6)
        assert len(assignment) == len(small_underlay.hosts)
        assert all(len(v) == 6 for v in assignment.values())

    def test_same_as_hosts_share_slice(self):
        cat = ContentCatalog(
            CatalogConfig(n_files=100, locality_bias=1.0, topic_slice=0.1), rng=6
        )
        a = set(cat.draw_files(3, 8))
        b = set(cat.draw_files(3, 8))
        slice3 = set(int(f) for f in cat._as_slice(3))
        assert a <= slice3 and b <= slice3
