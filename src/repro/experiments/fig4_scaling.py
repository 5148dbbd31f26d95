"""Figure 4: PIM-core scaling — execution time and speedup vs color count.

For each graph the color count ``C`` is swept; PIM cores used is
``binom(C+2, 3)``.  Times *include* the setup phase (allocation grows with
the rank count), which is what produces the paper's LiveJournal inversion:
for the smallest graph, extra parallelism is outweighed by allocation and
transfer overhead, so fewer cores win.
"""

from __future__ import annotations

from ..coloring.triplets import num_triplets
from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from .common import SCALING_COLOR_SWEEPS, ground_truth
from .tables import Table

__all__ = ["run", "SCALING_GRAPHS"]

#: The four graphs the paper's Fig. 4 shows.
SCALING_GRAPHS = ("kronecker23", "livejournal", "orkut", "wikipedia")


def run(
    tier: str = "small",
    seed: int = 0,
    graphs: tuple[str, ...] = SCALING_GRAPHS,
    counter_options: dict | None = None,
) -> Table:
    sweeps = SCALING_COLOR_SWEEPS[tier]
    opts = counter_options or {}
    table = Table(
        title=f"Figure 4 — PIM core scaling (tier={tier})",
        headers=["Graph", "Colors", "DPUs", "Total ms", "Speedup", "Exact?"],
        notes=(
            "Speedup is vs the fewest-core configuration of the same graph, "
            "total time includes setup (paper Fig. 4). Expect monotone gains "
            "on the larger graphs and an inversion on livejournal (smallest)."
        ),
    )
    for name in graphs:
        graph = get_dataset(name, tier)
        truth = ground_truth(name, tier)
        baseline_time = None
        for colors in sweeps:
            result = PimTriangleCounter(num_colors=colors, seed=seed, **opts).count(graph)
            total = result.total_seconds
            if baseline_time is None:
                baseline_time = total
            table.add_row(
                name,
                colors,
                num_triplets(colors),
                round(total * 1e3, 3),
                round(baseline_time / total, 3),
                result.count == truth,
            )
    return table
