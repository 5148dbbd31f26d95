"""Table 1: the evaluation graphs — |E|, |V|, exact triangle count.

Paper values are for the full-scale public datasets; our rows describe the
scaled-down analogues (DESIGN.md Sec. 2) with the same structural profile.
"""

from __future__ import annotations

from ..graph.datasets import DATASET_NAMES, dataset_info, get_dataset
from ..graph.stats import compute_stats
from .common import ground_truth
from .tables import Table

__all__ = ["run"]


def run(tier: str = "small", seed: int = 0, counter_options: dict | None = None) -> Table:
    table = Table(
        title=f"Table 1 — graphs used in the evaluations (tier={tier})",
        headers=["Graph", "|E|", "|V|", "Triangles", "Stands in for"],
        notes=(
            "Analogue datasets: each preserves the paper graph's defining "
            "property at reduced scale (see DESIGN.md)."
        ),
    )
    for name in DATASET_NAMES:
        graph = get_dataset(name, tier)
        stats = compute_stats(graph, triangles=ground_truth(name, tier))
        paper_name, _ = dataset_info(name)
        table.add_row(name, stats.num_edges, stats.num_nodes, stats.triangles, paper_name)
    return table
