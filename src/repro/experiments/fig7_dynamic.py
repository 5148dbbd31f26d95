"""Figure 7: dynamic updates — cumulative time over 10 COO update batches.

The paper's workload: WikipediaEdit (its *worst* static graph for PIM) split
into 10 subgraphs merged in one at a time, counting after every merge.  The
CPU baseline must re-convert the entire cumulative graph to CSR every round;
the GPU and PIM implementations update their COO-native state and count
incrementally.

Expected shape (paper Fig. 7): CPU cumulative time grows fastest (conversion
is charged on the whole graph every round); PIM and GPU stay well below it,
turning the paper's worst static case into a PIM win.
"""

from __future__ import annotations

from ..baselines.dynamic import CpuDynamicDriver, GpuDynamicDriver
from ..core.dynamic import DynamicPimCounter
from ..graph.datasets import get_dataset
from .common import DEFAULT_COLORS, ground_truth
from .fig6_static import BEST_MG
from .tables import Table

__all__ = ["run", "NUM_UPDATES"]

NUM_UPDATES = 10


def run(
    tier: str = "small",
    seed: int = 0,
    graph_name: str = "wikipedia",
    num_updates: int = NUM_UPDATES,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    graph = get_dataset(graph_name, tier)
    batches = graph.split_batches(num_updates)
    table = Table(
        title=(
            f"Figure 7 — dynamic updates on {graph_name} "
            f"(tier={tier}, C={colors}, {num_updates} updates)"
        ),
        headers=[
            "Round",
            "Cum edges",
            "Triangles",
            "CPU cum ms",
            "GPU cum ms",
            "PIM cum ms",
            "PIM speedup vs CPU",
        ],
        notes=(
            "Cumulative simulated time after each update round (paper Fig. 7). "
            "Expect the CPU column to grow fastest (per-round CSR conversion)."
        ),
    )
    cpu = CpuDynamicDriver(graph.num_nodes)
    gpu = GpuDynamicDriver(graph.num_nodes)
    # The paper runs comparisons with each graph's best Misra-Gries parameters
    # (Sec. 4.3); the streaming summary extends to the dynamic setting.
    mg_k, mg_t = BEST_MG.get(graph_name, (0, 0))
    pim = DynamicPimCounter(
        graph.num_nodes,
        num_colors=colors,
        seed=seed,
        misra_gries_k=mg_k,
        misra_gries_t=mg_t,
    )
    for batch in batches:
        cpu_round = cpu.apply_update(batch)
        gpu_round = gpu.apply_update(batch)
        pim_round = pim.apply_update(batch)
        assert cpu_round.triangles_total == pim_round.triangles_total, (
            "dynamic counters disagree"
        )
        table.add_row(
            cpu_round.round_index,
            cpu_round.cumulative_edges,
            cpu_round.triangles_total,
            round(cpu_round.cumulative_seconds * 1e3, 3),
            round(gpu_round.cumulative_seconds * 1e3, 3),
            round(pim_round.cumulative_seconds * 1e3, 3),
            round(cpu_round.cumulative_seconds / pim_round.cumulative_seconds, 3),
        )
    final_truth = ground_truth(graph_name, tier)
    assert pim.triangles == final_truth, "final dynamic count must match the oracle"
    return table
