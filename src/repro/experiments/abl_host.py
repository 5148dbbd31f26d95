"""Ablation: host thread count (the paper fixes 32 host threads, Sec. 4.1).

The host's work — streaming the COO file, hashing both endpoints, routing
into per-core batches, updating Misra-Gries — parallelizes across threads,
but the transfer and DPU phases do not care.  Sweeping the thread count shows
where the host stops being the bottleneck: sample-creation time falls roughly
linearly until transfers dominate, while the triangle-count phase is flat by
construction.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from ..pimsim.config import PimSystemConfig
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run", "THREAD_SWEEP"]

THREAD_SWEEP = (1, 4, 8, 16, 32, 64)


def run(
    tier: str = "small",
    seed: int = 0,
    graph_name: str = "kronecker23",
    sweep: tuple[int, ...] = THREAD_SWEEP,
    counter_options: dict | None = None,
) -> Table:
    colors = DEFAULT_COLORS[tier]
    graph = get_dataset(graph_name, tier)
    truth = ground_truth(graph_name, tier)
    table = Table(
        title=f"Ablation — host threads on {graph_name} (tier={tier}, C={colors})",
        headers=["Threads", "Sample ms", "Count ms", "Sample speedup vs 1", "Exact?"],
        notes=(
            "Sample creation parallelizes with host threads until transfers "
            "dominate; the counting phase is host-thread-independent."
        ),
    )
    base_sample = None
    for threads in sweep:
        config = PimSystemConfig().with_cost(host_threads=threads)
        result = PimTriangleCounter(
            num_colors=colors, seed=seed, system_config=config, **(counter_options or {})
        ).count(graph)
        sample_ms = result.sample_creation_seconds * 1e3
        if base_sample is None:
            base_sample = sample_ms
        table.add_row(
            threads,
            round(sample_ms, 3),
            round(result.triangle_count_seconds * 1e3, 3),
            round(base_sample / sample_ms, 3),
            result.count == truth,
        )
    return table
