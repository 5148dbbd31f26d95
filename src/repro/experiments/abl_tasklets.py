"""Ablation: tasklet scaling inside one DPU (the PrIM saturation curve).

The paper fixes 16 tasklets per PIM core (Sec. 4.1).  The PrIM
characterization behind our cost model says the DPU pipeline saturates at
>= 11 resident tasklets — below that, issue slots go empty and throughput is
``T/11`` of peak.  This ablation sweeps tasklets-per-DPU on a fixed workload
and should show:

* near-linear count-time improvement from 1 to ~11 tasklets;
* a flat tail from 11 to 16 (the pipeline is already full);

i.e. the paper's choice of 16 buys head-room, not raw speed — and any future
DPU with a shorter pipeline would saturate earlier.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from ..pimsim.config import DpuConfig, PimSystemConfig
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run", "TASKLET_SWEEP"]

TASKLET_SWEEP = (1, 2, 4, 8, 11, 16)


def run(
    tier: str = "small",
    seed: int = 0,
    graph_name: str = "orkut",
    sweep: tuple[int, ...] = TASKLET_SWEEP,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    graph = get_dataset(graph_name, tier)
    truth = ground_truth(graph_name, tier)
    table = Table(
        title=f"Ablation — tasklets per DPU on {graph_name} (tier={tier}, C={colors})",
        headers=["Tasklets", "Count ms", "Speedup vs 1", "Exact?"],
        notes=(
            "PrIM saturation curve: near-linear gains up to ~11 tasklets, "
            "then flat — the 14-stage pipeline is already issuing every cycle."
        ),
    )
    base_ms = None
    for tasklets in sweep:
        config = PimSystemConfig(dpu=DpuConfig(num_tasklets=tasklets))
        result = PimTriangleCounter(
            num_colors=colors, seed=seed, system_config=config, **(counter_options or {})
        ).count(graph)
        count_ms = result.triangle_count_seconds * 1e3
        if base_ms is None:
            base_ms = count_ms
        table.add_row(
            tasklets,
            round(count_ms, 3),
            round(base_ms / count_ms, 3),
            result.count == truth,
        )
    return table
