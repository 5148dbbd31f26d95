"""Table 3: relative error under uniform edge sampling, p in {0.5, 0.25, 0.1, 0.01}.

Each cell is the relative error of the unbiased estimator (count / p^3)
versus the exact triangle count.  Expected shape (paper Sec. 4.4): errors
grow as ``p`` shrinks; the triangle-poor graph (v1r, ~50 triangles) is the
outlier with huge/100% error because removing almost any edge destroys a
noticeable fraction of its 49 triangles.

Note on magnitudes: sampling error scales like ``1/sqrt(T * p^3)``; the
paper's graphs hold 1e8-4e10 triangles, our scaled analogues 1e3-1e6, so our
relative errors sit proportionally higher at equal ``p`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

from ..core.api import PimTriangleCounter
from ..graph.datasets import DATASET_NAMES, get_dataset
from ..streaming.estimators import relative_error
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run", "UNIFORM_PS"]

UNIFORM_PS = (0.5, 0.25, 0.1, 0.01)


def run(
    tier: str = "small",
    seed: int = 0,
    ps: tuple[float, ...] = UNIFORM_PS,
    trials: int = 3,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    opts = counter_options or {}
    table = Table(
        title=f"Table 3 — relative error vs uniform sampling p (tier={tier}, C={colors})",
        headers=["Graph"] + [f"p={p}" for p in ps] + ["Speedup@min p"],
        notes=(
            "Cells: mean relative error over trials (paper Table 3). Last "
            "column: (sample+count) speedup of the smallest p vs exact."
        ),
    )
    for name in DATASET_NAMES:
        graph = get_dataset(name, tier)
        truth = ground_truth(name, tier)
        exact = PimTriangleCounter(num_colors=colors, seed=seed, **opts).count(graph)
        exact_time = exact.seconds_without_setup
        errors = []
        min_p_time = None
        for p in ps:
            errs = []
            times = []
            for trial in range(trials):
                counter = PimTriangleCounter(
                    num_colors=colors, uniform_p=p, seed=seed + 1000 * trial, **opts
                )
                result = counter.count(graph)
                errs.append(relative_error(result.estimate, truth))
                times.append(result.seconds_without_setup)
            errors.append(sum(errs) / len(errs))
            min_p_time = sum(times) / len(times)
        table.add_row(
            name,
            *[f"{100 * e:.3f}%" for e in errors],
            round(exact_time / min_p_time, 2) if min_p_time else float("nan"),
        )
    return table
