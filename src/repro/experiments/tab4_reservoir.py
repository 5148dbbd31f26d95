"""Table 4: relative error under reservoir sampling in the PIM cores.

Following the paper's methodology (Sec. 4.5): the maximum *expected* edges
assigned to one PIM core is ``(6 / C^2) |E|``; the per-core sample capacity is
limited to a fraction ``p`` of that, ``p in {0.5, 0.25, 0.1, 0.01}``, forcing
reservoir replacement.  Expected shape: errors stay low (reservoir sampling
is lower-variance than uniform sampling at equal budget because the sample is
as large as memory allows) except on the triangle-poor v1r.
"""

from __future__ import annotations

from ..core.api import PimTriangleCounter
from ..graph.datasets import DATASET_NAMES, get_dataset
from ..streaming.estimators import relative_error
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run", "RESERVOIR_FRACTIONS"]

RESERVOIR_FRACTIONS = (0.5, 0.25, 0.1, 0.01)


def run(
    tier: str = "small",
    seed: int = 0,
    fractions: tuple[float, ...] = RESERVOIR_FRACTIONS,
    trials: int = 3,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    table = Table(
        title=f"Table 4 — relative error vs reservoir size fraction (tier={tier}, C={colors})",
        headers=["Graph"] + [f"p={f}" for f in fractions],
        notes=(
            "Per-core capacity M = fraction * (6/C^2)|E| (paper Table 4). "
            "Cells: mean relative error over trials."
        ),
    )
    for name in DATASET_NAMES:
        graph = get_dataset(name, tier)
        truth = ground_truth(name, tier)
        expected_max = 6.0 * graph.num_edges / colors**2
        errors = []
        for frac in fractions:
            capacity = max(3, int(frac * expected_max))
            errs = []
            for trial in range(trials):
                counter = PimTriangleCounter(
                    num_colors=colors,
                    reservoir_capacity=capacity,
                    seed=seed + 1000 * trial,
                    **(counter_options or {}),
                )
                result = counter.count(graph)
                errs.append(relative_error(result.estimate, truth))
            errors.append(sum(errs) / len(errs))
        table.add_row(name, *[f"{100 * e:.3f}%" for e in errors])
    return table
