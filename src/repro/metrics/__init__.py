"""Evaluation metrics: locality, latency, messages, resilience, impact."""

from repro.metrics.impact import (
    BIG_EFFECT_THRESHOLD,
    INFO_COLUMNS,
    PAPER_TABLE2,
    PARAMETER_ROWS,
    SMALL_EFFECT_THRESHOLD,
    ImpactCell,
    agreement_rate,
    compare_with_paper,
    impact_symbol,
)
from repro.metrics.challenges import (
    hop_delay_correlation,
    knn_asymmetry,
    long_hop_fraction,
)
from repro.metrics.latency_metrics import (
    delay_percentiles,
    percentile_key,
)
from repro.metrics.locality import (
    as_modularity,
    inter_as_edge_count,
    intra_as_edge_fraction,
    is_connected,
    locality_summary,
    min_inter_as_edges,
)
from repro.metrics.message_stats import (
    GNUTELLA_KINDS,
    gnutella_table_row,
)
from repro.metrics.resilience import (
    articulation_point_count,
    largest_component_fraction,
    partition_risk,
    resilience_summary,
)

__all__ = [
    "BIG_EFFECT_THRESHOLD",
    "GNUTELLA_KINDS",
    "INFO_COLUMNS",
    "ImpactCell",
    "PAPER_TABLE2",
    "PARAMETER_ROWS",
    "SMALL_EFFECT_THRESHOLD",
    "agreement_rate",
    "articulation_point_count",
    "as_modularity",
    "compare_with_paper",
    "delay_percentiles",
    "gnutella_table_row",
    "hop_delay_correlation",
    "impact_symbol",
    "inter_as_edge_count",
    "intra_as_edge_fraction",
    "is_connected",
    "knn_asymmetry",
    "largest_component_fraction",
    "locality_summary",
    "long_hop_fraction",
    "min_inter_as_edges",
    "partition_risk",
    "percentile_key",
    "resilience_summary",
]
