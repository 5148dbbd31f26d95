"""Ablations beyond the paper's figures (DESIGN.md Sec. 7).

Three studies of the design choices the paper adopts but does not isolate:

* ``abl_coloring`` — what the C-fold edge duplication costs and buys: total
  kernel instructions (rises ~3x then flattens), slowest-DPU compute time
  (falls with parallelism), and transfer volume (rises linearly with C).
* ``abl_compose`` — uniform and reservoir sampling composed (the paper notes
  they can be applied concurrently, Secs. 3.2/3.3): error of each alone vs
  both together at matched budgets.
* ``abl_energy`` — the PrIM-style energy ledger across color counts: more
  cores burn more total instructions (duplication) but finish sooner.
"""

from __future__ import annotations

from ..coloring.triplets import num_triplets
from ..core.api import PimTriangleCounter
from ..graph.datasets import get_dataset
from ..pimsim.energy import EnergyModel
from ..streaming.estimators import relative_error
from .common import DEFAULT_COLORS, ground_truth
from .tables import Table

__all__ = ["run_coloring", "run_compose", "run_energy"]


def run_coloring(
    tier: str = "small", seed: int = 0, graph_name: str = "orkut", counter_options: dict | None = None
) -> Table:
    graph = get_dataset(graph_name, tier)
    opts = counter_options or {}
    truth = ground_truth(graph_name, tier)
    sweeps = {"tiny": (1, 2, 4), "small": (1, 2, 4, 8), "bench": (1, 2, 4, 8, 16)}[tier]
    table = Table(
        title=f"Ablation — coloring duplication vs parallelism on {graph_name} (tier={tier})",
        headers=["Colors", "DPUs", "Total instr (M)", "Max-DPU ms", "Routed edges", "Exact?"],
        notes=(
            "Total instructions rise ~3x from C=1 and then flatten (each edge "
            "is processed against a 3/C-thinned neighborhood on C cores) while "
            "the slowest core's time keeps falling: the coloring trades "
            "bounded extra work for communication-free parallelism."
        ),
    )
    for colors in sweeps:
        result = PimTriangleCounter(num_colors=colors, seed=seed, **opts).count(graph)
        assert result.count == truth
        table.add_row(
            colors,
            num_triplets(colors),
            round(result.kernel.instructions / 1e6, 3),
            round(result.kernel.max_dpu_compute_seconds * 1e3, 3),
            int(result.edges_routed.sum()),
            result.count == truth,
        )
    return table


def run_compose(
    tier: str = "small",
    seed: int = 0,
    graph_name: str = "kronecker23",
    counter_options: dict | None = None,
) -> Table:
    graph = get_dataset(graph_name, tier)
    opts = counter_options or {}
    truth = ground_truth(graph_name, tier)
    colors = DEFAULT_COLORS[tier]
    expected_max = 6.0 * graph.num_edges / colors**2
    capacity = max(3, int(0.25 * expected_max))
    configs = [
        ("exact", dict()),
        ("uniform p=0.25", dict(uniform_p=0.25)),
        ("reservoir f=0.25", dict(reservoir_capacity=capacity)),
        ("both", dict(uniform_p=0.25, reservoir_capacity=capacity)),
    ]
    table = Table(
        title=f"Ablation — uniform + reservoir composition on {graph_name} (tier={tier})",
        headers=["Config", "Estimate", "Rel error", "Sample ms", "Count ms"],
        notes=(
            "The two samplers compose without double-unbiasing (paper "
            "Secs. 3.2/3.3); 'both' shrinks transfers (uniform) and memory "
            "(reservoir) simultaneously."
        ),
    )
    for label, overrides in configs:
        errs, samples, counts, est = [], [], [], 0.0
        for trial in range(3):
            counter = PimTriangleCounter(
                num_colors=colors, seed=seed + 97 * trial, **overrides, **opts
            )
            result = counter.count(graph)
            errs.append(relative_error(result.estimate, truth))
            samples.append(result.sample_creation_seconds)
            counts.append(result.triangle_count_seconds)
            est = result.estimate
        table.add_row(
            label,
            round(est, 1),
            f"{100 * sum(errs) / len(errs):.3f}%",
            round(1e3 * sum(samples) / len(samples), 3),
            round(1e3 * sum(counts) / len(counts), 3),
        )
    return table


def run_energy(
    tier: str = "small", seed: int = 0, graph_name: str = "orkut", counter_options: dict | None = None
) -> Table:
    graph = get_dataset(graph_name, tier)
    opts = counter_options or {}
    model = EnergyModel()
    sweeps = {"tiny": (2, 4), "small": (2, 4, 8), "bench": (2, 4, 8, 16)}[tier]
    table = Table(
        title=f"Ablation — energy ledger vs colors on {graph_name} (tier={tier})",
        headers=["Colors", "DPUs", "Instr (M)", "DMA MiB", "Dynamic mJ", "Count ms"],
        notes=(
            "Linear PrIM-style energy model (pimsim.energy): duplication "
            "raises dynamic energy sublinearly while cutting latency."
        ),
    )
    for colors in sweeps:
        result = PimTriangleCounter(num_colors=colors, seed=seed, **opts).count(graph)
        k = result.kernel
        dynamic_j = k.instructions * model.instruction_j + k.dma_bytes * model.mram_byte_j
        table.add_row(
            colors,
            num_triplets(colors),
            round(k.instructions / 1e6, 3),
            round(k.dma_bytes / (1 << 20), 3),
            round(dynamic_j * 1e3, 6),
            round(result.triangle_count_seconds * 1e3, 3),
        )
    return table
