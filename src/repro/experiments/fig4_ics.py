"""FIG4 — the ICS Internet coordinate system (Lim et al. [20]).

Two parts:

1. **Worked examples.** The survey's Figure 4 excerpt contains the
   paper's Examples 4–5 with concrete numbers (α=0.6, beacon coordinates
   (−2.1, ±1.5), host A at (−3, 1.8) with estimated distances 0.94/3.42,
   host B at (−12, 0) with 10.01; for n=4: α=0.5927, intra 0.8383,
   inter 3.0224).  ``run_fig4_examples`` recomputes all of them — these
   are deterministic linear algebra and must match to 4 decimals.

2. **Embedding comparison.** ICS vs Vivaldi vs GNP on an RTT matrix from
   the generated underlay: median relative error, closest-peer accuracy,
   selection stretch — the §3.2 latency-prediction trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.coords import (
    GNPConfig,
    GNPSystem,
    ICS,
    ICSConfig,
    PAPER_EXAMPLE_HOST_A,
    PAPER_EXAMPLE_HOST_B,
    PAPER_EXAMPLE_MATRIX,
    VivaldiConfig,
    VivaldiSystem,
    evaluate_embedding,
)
from repro.experiments.common import ExperimentResult
from repro.runner import run_arms
from repro.underlay.network import Underlay, UnderlayConfig


def run_fig4_examples() -> ExperimentResult:
    """Reproduce Lim et al. Examples 4 and 5 exactly."""
    result = ExperimentResult(
        "FIG4a", "ICS worked examples (paper values in parentheses)"
    )
    ics2 = ICS(PAPER_EXAMPLE_MATRIX, ICSConfig(dim=2))
    xa = ics2.host_coordinate(PAPER_EXAMPLE_HOST_A)
    xb = ics2.host_coordinate(PAPER_EXAMPLE_HOST_B)
    c = ics2.beacon_coords
    result.add_row(
        quantity="alpha (n=2)", measured=float(ics2.alpha), paper=0.6
    )
    result.add_row(
        quantity="beacon c1 x", measured=float(c[0, 0]), paper=-2.1
    )
    result.add_row(
        quantity="beacon c1 y", measured=float(c[0, 1]), paper=1.5
    )
    result.add_row(
        quantity="inter-AS beacon distance", measured=ics2.estimate(0, 2), paper=3.0
    )
    result.add_row(quantity="host A x", measured=float(xa[0]), paper=-3.0)
    result.add_row(quantity="host A y", measured=float(xa[1]), paper=1.8)
    result.add_row(
        quantity="d(A, beacon1)", measured=ICS.distance(c[0], xa), paper=0.94
    )
    result.add_row(
        quantity="d(A, beacon3)", measured=ICS.distance(c[2], xa), paper=3.42
    )
    result.add_row(quantity="host B x", measured=float(xb[0]), paper=-12.0)
    result.add_row(
        quantity="d(B, beacons)", measured=ICS.distance(c[0], xb), paper=10.01
    )
    ics4 = ICS(PAPER_EXAMPLE_MATRIX, ICSConfig(dim=4))
    result.add_row(
        quantity="alpha (n=4)", measured=float(ics4.alpha), paper=0.5927
    )
    result.add_row(
        quantity="intra distance (n=4)", measured=ics4.estimate(0, 1), paper=0.8383
    )
    result.add_row(
        quantity="inter distance (n=4)", measured=ics4.estimate(0, 2), paper=3.0224
    )
    return result


def run_fig4_embedding(
    n_hosts: int = 60, n_beacons: int = 12, seed: int = 33
) -> ExperimentResult:
    """Compare latency-prediction systems on a generated underlay."""
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    rtt = underlay.rtt_matrix()
    result = ExperimentResult(
        "FIG4b", "Latency prediction: ICS vs Vivaldi vs GNP"
    )

    # ICS: beacons are the first n_beacons hosts; all hosts embed via
    # their measured RTT vectors to the beacons.
    beacon_idx = np.arange(n_beacons)
    # a high variance threshold keeps most PCA dimensions — Lim et al.
    # recommend the cumulative-variation cut, and on realistic matrices
    # the useful signal extends well past the first two components
    ics = ICS(rtt[np.ix_(beacon_idx, beacon_idx)], ICSConfig(variance_threshold=0.995))
    host_coords = ics.host_coordinates(rtt[:, beacon_idx])
    diff = host_coords[:, None, :] - host_coords[None, :, :]
    ics_pred = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(ics_pred, 0.0)
    rep = evaluate_embedding(ics_pred, rtt)
    result.add_row(system="ICS", dim=ics.dim,
                   probes_per_host=n_beacons, **rep.as_row())

    viv = VivaldiSystem(rtt, VivaldiConfig(dim=3, use_height=True), rng=seed)
    rounds, nbrs = 40, 8
    viv.run(rounds=rounds, neighbors_per_round=nbrs)
    rep = evaluate_embedding(viv.estimated_matrix(), rtt)
    result.add_row(system="Vivaldi(3D+h)", dim=3,
                   probes_per_host=rounds * nbrs, **rep.as_row())

    gnp = GNPSystem(rtt[np.ix_(beacon_idx, beacon_idx)], GNPConfig(dim=3), seed=seed)
    coords = np.array(
        [gnp.host_coordinate(rtt[i, beacon_idx]) for i in range(n_hosts)]
    )
    diff = coords[:, None, :] - coords[None, :, :]
    gnp_pred = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(gnp_pred, 0.0)
    rep = evaluate_embedding(gnp_pred, rtt)
    result.add_row(system="GNP", dim=3,
                   probes_per_host=n_beacons, **rep.as_row())
    return result


def run_fig4_dimension_sweep(
    n_hosts: int = 60, n_beacons: int = 14, seed: int = 33,
    workers: int | None = None,
) -> ExperimentResult:
    """The ICS dimension-selection knob: embedding error against the PCA
    dimension (Lim et al.'s step S4 picks it by cumulative variation).

    Expected shape: error drops as dimensions are added and plateaus —
    and the paper's cumulative-variation rule (with a high threshold)
    lands on the plateau without manual tuning.  The per-dimension arms
    fan out through :func:`repro.runner.run_arms` (rows identical at any
    worker count; the RTT matrix is inherited by forked workers).
    """
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    rtt = underlay.rtt_matrix()
    beacon_idx = np.arange(n_beacons)
    beacons = rtt[np.ix_(beacon_idx, beacon_idx)]
    result = ExperimentResult(
        "FIG4c", "ICS embedding error vs PCA dimension"
    )

    def run_dim(dim: int) -> dict:
        ics = ICS(beacons, ICSConfig(dim=dim))
        coords = ics.host_coordinates(rtt[:, beacon_idx])
        diff = coords[:, None, :] - coords[None, :, :]
        pred = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(pred, 0.0)
        rep = evaluate_embedding(pred, rtt)
        return {
            "dim": ics.dim,
            "cumulative_variation": float(
                ics.cumulative_variation[ics.dim - 1]
            ),
            "median_rel_err": rep.median_relative_error,
            "stretch": rep.mean_selection_stretch,
        }

    for row in run_arms(run_dim, [1, 2, 3, 5, 8, n_beacons], workers=workers):
        result.add_row(**row)
    auto = ICS(beacons, ICSConfig(variance_threshold=0.995))
    result.notes.append(
        f"cumulative-variation rule (threshold 0.995) selects dim={auto.dim}"
    )
    return result
