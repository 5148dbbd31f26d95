"""Cost-model sensitivity ablation (beyond the paper).

Every simulated-time conclusion in this reproduction rests on calibration
constants (DESIGN.md Sec. 6).  This experiment perturbs each load-bearing
constant by 0.5x and 2x and re-checks the paper's most shape-critical claim —
the high-degree throughput collapse of Fig. 3 (hub graph at least 2x slower
per edge than the flat road-network analogue) — demonstrating that the
reproduced shapes are properties of the algorithm, not of any single
calibration value.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from ..pimsim.config import PimSystemConfig
from .common import DEFAULT_COLORS
from .tables import Table

__all__ = ["run", "PERTURBED_CONSTANTS"]

#: CostModel fields whose value drives some reproduced shape.
PERTURBED_CONSTANTS = (
    "mram_read_bandwidth",
    "scatter_bandwidth",
    "rank_alloc_latency",
    "host_edge_cycles",
    "transfer_latency",
)


def _throughput(graph, colors: int, config: PimSystemConfig, seed: int, opts: dict) -> float:
    counter = PimTriangleCounter(num_colors=colors, seed=seed, system_config=config, **opts)
    return counter.count(graph).throughput_edges_per_ms()


def run(tier: str = "small", seed: int = 0, counter_options: dict | None = None) -> Table:
    colors = DEFAULT_COLORS[tier]
    flat = get_dataset("v1r", tier)
    hub = get_dataset("wikipedia", tier)
    table = Table(
        title=f"Ablation — cost-model sensitivity of the Fig. 3 shape (tier={tier})",
        headers=["Constant", "Factor", "v1r edges/ms", "wikipedia edges/ms", "Ratio", "Holds?"],
        notes=(
            "The hub graph must stay >= 2x slower per edge than the flat graph "
            "under every 0.5x/2x perturbation of each cost constant."
        ),
    )
    base = PimSystemConfig()
    configs = [("(baseline)", 1.0, base)]
    for constant in PERTURBED_CONSTANTS:
        for factor in (0.5, 2.0):
            value = getattr(base.cost, constant) * factor
            configs.append((constant, factor, base.with_cost(**{constant: value})))
    for constant, factor, config in configs:
        tp_flat = _throughput(flat, colors, config, seed, counter_options or {})
        tp_hub = _throughput(hub, colors, config, seed, counter_options or {})
        ratio = tp_flat / tp_hub
        table.add_row(
            constant,
            factor,
            round(tp_flat, 1),
            round(tp_hub, 1),
            round(ratio, 2),
            ratio >= 2.0,
        )
    return table
