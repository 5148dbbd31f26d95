"""Registry mapping experiment IDs to their runners.

IDs follow the paper's artifact numbering (``tab1`` .. ``fig7``) plus the
ablations DESIGN.md calls out.  Each runner has signature
``run(tier: str = ..., seed: int = 0, counter_options=None, **kw) -> Table``;
``counter_options`` are extra :class:`~repro.core.api.PimTriangleCounter`
keyword arguments for every counter the experiment builds (none for ``tab1``,
``tab2``, ``fig7`` and ``abl_dynamic``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import (
    abl_dynamic,
    abl_host,
    abl_kernels,
    abl_tasklets,
    ablations,
    sensitivity,
    fig3_throughput,
    fig4_scaling,
    fig5_misra_gries,
    fig6_static,
    fig7_dynamic,
    tab1_graphs,
    tab2_stats,
    tab3_uniform,
    tab4_reservoir,
)
from .tables import Table

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment", "experiment_ids"]


@dataclass(frozen=True)
class Experiment:
    id: str
    paper_artifact: str
    description: str
    runner: Callable[..., Table]


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("tab1", "Table 1", "Graph inventory: |E|, |V|, triangles", tab1_graphs.run),
        Experiment("tab2", "Table 2", "Max/avg degree, global clustering", tab2_stats.run),
        Experiment(
            "fig3", "Figure 3", "Throughput (edges/ms) ordered by max degree", fig3_throughput.run
        ),
        Experiment("fig4", "Figure 4", "PIM core scaling over color counts", fig4_scaling.run),
        Experiment("fig5", "Figure 5", "Misra-Gries K/t parameter sweep", fig5_misra_gries.run),
        Experiment("tab3", "Table 3", "Relative error vs uniform sampling p", tab3_uniform.run),
        Experiment("tab4", "Table 4", "Relative error vs reservoir fraction", tab4_reservoir.run),
        Experiment("fig6", "Figure 6", "Static speedup of PIM/GPU over CPU", fig6_static.run),
        Experiment("fig7", "Figure 7", "Dynamic updates: cumulative time", fig7_dynamic.run),
        Experiment(
            "abl_coloring",
            "(beyond paper)",
            "Coloring duplication vs parallelism",
            ablations.run_coloring,
        ),
        Experiment(
            "abl_compose",
            "(beyond paper)",
            "Uniform + reservoir sampling composition",
            ablations.run_compose,
        ),
        Experiment(
            "abl_energy", "(beyond paper)", "Energy ledger across color counts", ablations.run_energy
        ),
        Experiment(
            "abl_kernels",
            "(beyond paper)",
            "Merge vs probe counting kernels",
            abl_kernels.run,
        ),
        Experiment(
            "abl_dynamic",
            "(beyond paper)",
            "Dynamic update batch-size sweep",
            abl_dynamic.run,
        ),
        Experiment(
            "abl_tasklets",
            "(beyond paper)",
            "Tasklet scaling inside one DPU (PrIM saturation curve)",
            abl_tasklets.run,
        ),
        Experiment(
            "abl_host",
            "(beyond paper)",
            "Host thread-count sweep (paper fixes 32)",
            abl_host.run,
        ),
        Experiment(
            "abl_sensitivity",
            "(beyond paper)",
            "Cost-model sensitivity of the Fig. 3 shape",
            sensitivity.run,
        ),
    ]
}


def experiment_ids() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, tier: str = "small", seed: int = 0, **kw) -> Table:
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENTS)}")
    return EXPERIMENTS[exp_id].runner(tier=tier, seed=seed, **kw)
