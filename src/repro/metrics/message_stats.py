"""The Gnutella message table of Figure 5, from bus per-kind counts."""

from __future__ import annotations

from typing import Mapping

#: The four Gnutella descriptor types of the [1] message table.
GNUTELLA_KINDS = ("PING", "PONG", "QUERY", "QUERYHIT")


def gnutella_table_row(counts: Mapping[str, int]) -> dict[str, int]:
    """Extract the Figure 5 message-table row from bus per-kind counts."""
    return {k: int(counts.get(k, 0)) for k in GNUTELLA_KINDS}

