"""Experiments: one module per figure/table of the paper.

| id      | paper artefact                          | module                 |
|---------|-----------------------------------------|------------------------|
| FIG1    | Internet hierarchy                      | fig1_hierarchy         |
| FIG2    | cost relations (+ locality savings)     | fig2_costs             |
| FIG3    | collection taxonomy, measured           | fig3_taxonomy          |
| FIG4    | ICS coordinates (+ worked examples)     | fig4_ics               |
| FIG5    | Gnutella + oracle message table         | fig5_gnutella_oracle   |
| FIG6    | uniform vs biased neighbor selection    | fig6_bns               |
| TESTLAB | 45-node 5-AS controlled experiments     | testlab                |
| TAB1    | catalogue of underlay-aware systems     | table1_systems         |
| TAB2    | impact matrix                           | table2_impact          |

Beyond the paper's artefacts, ``resilience_faults`` (id RESILIENCE)
answers its §5.4 open question with the fault-injection subsystem:
lookup success and stretch under loss, partition, and crash scenarios;
``locality_swarm`` (id LOCALITY) sweeps tracker locality bias over a
thousand-peer BitTorrent swarm on the flow-level data plane, reproducing
the Cuevas et al. win-win vs ISP-unfairness regimes; ``service_slo``
(id SERVICE) drives both overlays as *services* through the
:mod:`repro.service` layer — open- and closed-loop load under Poisson,
heavy-tail, and diurnal arrivals — and reports SLO latency percentiles.
"""

from repro.experiments.common import (
    ExperimentResult,
    print_table,
    repeat_over_seeds,
    run_observed,
)
from repro.experiments.fig1_hierarchy import run_fig1
from repro.experiments.fig2_costs import run_fig2, run_locality_savings
from repro.experiments.fig3_taxonomy import run_fig3
from repro.experiments.fig4_ics import (
    run_fig4_dimension_sweep,
    run_fig4_embedding,
    run_fig4_examples,
)
from repro.experiments.fig5_gnutella_oracle import run_fig5
from repro.experiments.fig6_bns import run_fig6
from repro.experiments.framework_composite import run_framework_composite
from repro.experiments.isp_bill import run_isp_bill
from repro.experiments.locality_swarm import run_locality_swarm
from repro.experiments.resilience_faults import run_resilience_faults
from repro.experiments.service_slo import run_service_slo
from repro.experiments.table1_systems import run_table1
from repro.experiments.table2_impact import run_table2
from repro.experiments.testlab import (
    TESTLAB_TOPOLOGIES,
    build_testlab_underlay,
    run_testlab,
    run_testlab_arm,
    testlab_topology,
)

__all__ = [
    "ExperimentResult",
    "TESTLAB_TOPOLOGIES",
    "build_testlab_underlay",
    "print_table",
    "repeat_over_seeds",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4_dimension_sweep",
    "run_fig4_embedding",
    "run_fig4_examples",
    "run_fig5",
    "run_fig6",
    "run_framework_composite",
    "run_isp_bill",
    "run_locality_savings",
    "run_locality_swarm",
    "run_observed",
    "run_resilience_faults",
    "run_service_slo",
    "run_table1",
    "run_table2",
    "run_testlab",
    "run_testlab_arm",
    "testlab_topology",
]
