"""Figure 3: counting throughput (edges/ms), graphs ordered by max degree.

The paper's motivating observation for Sec. 3.5: the plain edge-iterator
kernel's throughput collapses on graphs whose maximum degree is orders of
magnitude above the rest, because an edge ``(u, v)`` with high-degree ``u``
drags a huge forward adjacency through every merge.  Misra-Gries is *off*
here — this figure motivates it; Fig. 5 then shows the cure.

Expected shape: the low-max-degree graphs (v1r, humanjung, livejournal,
orkut) sustain visibly higher edges/ms than the hub-dominated ones
(kronecker23/24, wikipedia).
"""

from __future__ import annotations

from ..core.api import PimTriangleCounter
from .common import DEFAULT_COLORS, ground_truth, paper_graph_order_by_max_degree
from .tables import Table

__all__ = ["run"]


def run(
    tier: str = "small",
    seed: int = 0,
    num_colors: int | None = None,
    counter_options: dict | None = None,
) -> Table:
    colors = num_colors or DEFAULT_COLORS[tier]
    table = Table(
        title=f"Figure 3 — throughput vs max degree (tier={tier}, C={colors})",
        headers=["Graph", "Max degree", "Edges/ms", "Count ms", "Exact?"],
        notes=(
            "Graphs ordered by max degree ascending; expect a throughput drop "
            "for the high-max-degree graphs on the right (paper Fig. 3)."
        ),
    )
    from ..graph.datasets import get_dataset
    from ..graph.stats import degree_stats

    counter = PimTriangleCounter(num_colors=colors, seed=seed, **(counter_options or {}))
    for name in paper_graph_order_by_max_degree(tier):
        graph = get_dataset(name, tier)
        max_deg, _ = degree_stats(graph)
        result = counter.count(graph)
        truth = ground_truth(name, tier)
        ok = result.count == truth
        table.add_row(
            name,
            max_deg,
            round(result.throughput_edges_per_ms(), 1),
            round(result.triangle_count_seconds * 1e3, 3),
            ok,
        )
    return table
