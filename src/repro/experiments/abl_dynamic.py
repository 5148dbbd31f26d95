"""Ablation: dynamic-update batch-size study (DESIGN.md Sec. 7).

Fig. 7 fixes 10 update batches.  This study sweeps the batch count for the
same total edge stream: many small updates amortize the CPU's per-round
conversion *worse* (it reconverts the whole graph more often), while the PIM
side pays more fixed per-round costs (launch, gather, rank-padded scatter of
tiny batches).  The crossover in update granularity tells a system designer
when COO-native PIM counting pays off.
"""

from __future__ import annotations

from ..baselines.dynamic import CpuDynamicDriver
from ..core.dynamic import DynamicPimCounter
from ..graph.datasets import get_dataset
from .common import DEFAULT_COLORS, ground_truth
from .fig6_static import BEST_MG
from .tables import Table

__all__ = ["run", "BATCH_SWEEP"]

BATCH_SWEEP = (2, 5, 10, 25, 50)


def run(
    tier: str = "small",
    seed: int = 0,
    graph_name: str = "wikipedia",
    sweep: tuple[int, ...] = BATCH_SWEEP,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    graph = get_dataset(graph_name, tier)
    truth = ground_truth(graph_name, tier)
    mg_k, mg_t = BEST_MG.get(graph_name, (0, 0))
    table = Table(
        title=(
            f"Ablation — dynamic batch-size sweep on {graph_name} "
            f"(tier={tier}, C={colors})"
        ),
        headers=[
            "Batches",
            "CPU cum ms",
            "PIM cum ms",
            "PIM speedup",
            "PIM ms/round",
            "Exact?",
        ],
        notes=(
            "Same total edge stream, different update granularity. The CPU's "
            "cumulative conversion cost grows with round count; PIM's "
            "per-round overhead grows too but from a much smaller base."
        ),
    )
    for batches in sweep:
        cpu = CpuDynamicDriver(graph.num_nodes)
        pim = DynamicPimCounter(
            graph.num_nodes,
            num_colors=colors,
            seed=seed,
            misra_gries_k=mg_k,
            misra_gries_t=mg_t,
        )
        for batch in graph.split_batches(batches):
            cpu.apply_update(batch)
            pim.apply_update(batch)
        ok = pim.triangles == truth
        table.add_row(
            batches,
            round(cpu.cumulative_seconds * 1e3, 3),
            round(pim.cumulative_seconds * 1e3, 3),
            round(cpu.cumulative_seconds / pim.cumulative_seconds, 3),
            round(pim.cumulative_seconds * 1e3 / batches, 3),
            ok,
        )
    return table
