"""Table 2: maximum degree, average degree and global clustering coefficient.

The paper uses this table to separate the "high-degree" graphs (Kronecker 23,
Kronecker 24, WikipediaEdit — max degree an order of magnitude above the
rest) from the others; the same separation must hold for our analogues for
Figs. 3 and 5 to reproduce.
"""

from __future__ import annotations

from ..graph.datasets import DATASET_NAMES, get_dataset
from ..graph.stats import compute_stats
from .common import ground_truth
from .tables import Table

__all__ = ["run"]


def run(tier: str = "small", seed: int = 0, counter_options: dict | None = None) -> Table:
    table = Table(
        title=f"Table 2 — degree and clustering statistics (tier={tier})",
        headers=["Graph", "Max degree", "Avg degree", "Global clustering"],
        notes=(
            "Check: wikipedia/kronecker max degrees sit an order of magnitude "
            "above the rest; humanjung has the largest avg degree and clustering."
        ),
    )
    for name in DATASET_NAMES:
        graph = get_dataset(name, tier)
        stats = compute_stats(graph, triangles=ground_truth(name, tier))
        table.add_row(name, stats.max_degree, round(stats.avg_degree, 2), stats.global_clustering)
    return table
