"""Ablation: merge-based kernel (the paper's) vs binary-probe kernel.

DESIGN.md calls this design choice out: the paper picks the merge kernel, but
probe-style intersections are the common alternative in CPU/GPU counters.
Per edge the merge walks ``suffix(u) + deg+(v)`` sequential records while the
probe performs ``deg+(v) * log2(m)`` *random* touches — and on a DPU every
random MRAM touch pays the DMA setup latency that streaming amortizes away.

Finding (see EXPERIMENTS.md): the probe kernel loses on every graph, by 8x on
flat graphs and by ~50x on the hub graph — probing only avoids the hub's
suffix when the hub is the *first* endpoint, while paying the log factor and
the per-touch DMA latency everywhere.  This quantifies why the paper is right
to keep the DMA-friendly merge and attack the hub problem with the
Misra-Gries remap instead (the ``merge+MG`` column wins on all hub graphs).
"""

from __future__ import annotations

from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run", "KERNEL_GRAPHS"]

KERNEL_GRAPHS = ("v1r", "humanjung", "kronecker23", "wikipedia")


def run(
    tier: str = "small",
    seed: int = 0,
    graphs: tuple[str, ...] = KERNEL_GRAPHS,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    opts = counter_options or {}
    table = Table(
        title=f"Ablation — merge vs probe counting kernels (tier={tier}, C={colors})",
        headers=["Graph", "Merge ms", "Probe ms", "Merge+MG ms", "Best", "Exact?"],
        notes=(
            "Count-phase times. Random MRAM probes pay the DMA setup latency "
            "per touch, so the streaming merge wins everywhere and "
            "merge+Misra-Gries wins on the hub graphs — the paper's design."
        ),
    )
    for name in graphs:
        graph = get_dataset(name, tier)
        truth = ground_truth(name, tier)
        merge = PimTriangleCounter(num_colors=colors, seed=seed, **opts).count(graph)
        probe = (
            PimTriangleCounter(num_colors=colors, seed=seed, **opts)
            .with_options(kernel_variant="probe")
            .count(graph)
        )
        merge_mg = PimTriangleCounter(
            num_colors=colors, seed=seed, misra_gries_k=1024, misra_gries_t=64, **opts
        ).count(graph)
        times = {
            "merge": merge.triangle_count_seconds,
            "probe": probe.triangle_count_seconds,
            "merge+MG": merge_mg.triangle_count_seconds,
        }
        best = min(times, key=times.get)
        ok = merge.count == probe.count == merge_mg.count == truth
        table.add_row(
            name,
            round(times["merge"] * 1e3, 3),
            round(times["probe"] * 1e3, 3),
            round(times["merge+MG"] * 1e3, 3),
            best,
            ok,
        )
    return table
