"""Workload generators: content catalogues."""

from repro.workloads.content import CatalogConfig, ContentCatalog

__all__ = ["CatalogConfig", "ContentCatalog"]
