"""Figure 5: Misra-Gries parameter sweep (K and t).

``K`` controls the accuracy of heavy-hitter identification, ``t`` how many
top nodes are remapped inside the PIM cores.  Expected shape (paper Sec. 4.3):

* graphs with extreme hubs (wikipedia, kronecker*) speed up dramatically once
  the hubs are remapped, with diminishing returns in both K and t;
* low-max-degree graphs (humanjung, v1r, livejournal, orkut) see *no* benefit
  and a slight slowdown from the remap pass — the paper notes the remap is
  the most expensive part of the technique.
"""

from __future__ import annotations

from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run", "MG_SWEEP", "MG_GRAPHS"]

#: (K, t) grid; (0, 0) is the no-Misra-Gries baseline.
MG_SWEEP = ((0, 0), (64, 4), (256, 4), (256, 16), (1024, 16), (1024, 64))

#: Two hub-dominated graphs + two low-degree controls.
MG_GRAPHS = ("wikipedia", "kronecker23", "livejournal", "humanjung")


def run(
    tier: str = "small",
    seed: int = 0,
    graphs: tuple[str, ...] = MG_GRAPHS,
    sweep: tuple[tuple[int, int], ...] = MG_SWEEP,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    opts = counter_options or {}
    table = Table(
        title=f"Figure 5 — Misra-Gries K/t sweep (tier={tier}, C={colors})",
        headers=["Graph", "K", "t", "Count ms", "Total ms", "Speedup vs no-MG", "Exact?"],
        notes=(
            "Expect large count-time gains on wikipedia/kronecker23 and a mild "
            "slowdown on livejournal/humanjung (remap cost, no hubs to fix)."
        ),
    )
    for name in graphs:
        graph = get_dataset(name, tier)
        truth = ground_truth(name, tier)
        base_count_ms = None
        for k, t in sweep:
            counter = PimTriangleCounter(
                num_colors=colors, seed=seed, misra_gries_k=k, misra_gries_t=t, **opts
            )
            result = counter.count(graph)
            count_ms = result.triangle_count_seconds * 1e3
            if base_count_ms is None:
                base_count_ms = count_ms
            table.add_row(
                name,
                k,
                t,
                round(count_ms, 3),
                round(result.seconds_without_setup * 1e3, 3),
                round(base_count_ms / count_ms, 3) if count_ms else float("inf"),
                result.count == truth,
            )
    return table
