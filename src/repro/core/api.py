"""Public API: :class:`PimTriangleCounter`.

Typical use::

    from repro import PimTriangleCounter
    from repro.graph import get_dataset

    graph = get_dataset("orkut", tier="small")
    counter = PimTriangleCounter(num_colors=6, seed=1)
    result = counter.count(graph)
    print(result.count, result.summary())

Approximate modes mirror the paper's Secs. 3.2/3.3::

    counter = PimTriangleCounter(num_colors=6, uniform_p=0.1)          # DOULION
    counter = PimTriangleCounter(num_colors=6, reservoir_capacity=4096)  # TRIEST

and the Misra-Gries optimization for hub-heavy graphs (Sec. 3.5)::

    counter = PimTriangleCounter(num_colors=6, misra_gries_k=512, misra_gries_t=8)
"""

from __future__ import annotations

from dataclasses import replace

from ..coloring.triplets import colors_for_dpus, num_triplets
from ..graph.coo import COOGraph
from ..pimsim.config import PimSystemConfig
from ..pimsim.system import PimSystem
from ..telemetry.spans import Telemetry
from .host import PimTcOptions, PimTcPipeline
from .result import TcResult

__all__ = ["PimTriangleCounter"]


class PimTriangleCounter:
    """Triangle counting on the (simulated) UPMEM PIM system.

    Parameters mirror :class:`~repro.core.host.PimTcOptions`; a custom
    :class:`~repro.pimsim.config.PimSystemConfig` may be supplied to model a
    different machine shape or cost calibration.
    """

    def __init__(
        self,
        num_colors: int = 4,
        *,
        uniform_p: float = 1.0,
        reservoir_capacity: int | None = None,
        misra_gries_k: int = 0,
        misra_gries_t: int = 0,
        seed: int = 0,
        batch_edges: int | None = None,
        partitioner: str = "hash",
        rebalance_cv: float | None = None,
        kernel_variant: str = "merge",
        executor: str | None = None,
        jobs: int | None = None,
        system_config: PimSystemConfig | None = None,
        options: PimTcOptions | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if options is None:
            options = PimTcOptions(
                num_colors=num_colors,
                uniform_p=uniform_p,
                reservoir_capacity=reservoir_capacity,
                misra_gries_k=misra_gries_k,
                misra_gries_t=misra_gries_t,
                seed=seed,
                batch_edges=batch_edges,
                partitioner=partitioner,
                rebalance_cv=rebalance_cv,
                kernel_variant=kernel_variant,
            )
        self.options = options
        config = system_config or PimSystemConfig()
        # Host execution engine (``serial``/``thread``/``process``): purely a
        # wall-clock knob — simulated times and counts are engine-invariant.
        # ``None`` keeps whatever ``system_config`` says.
        if executor is not None or jobs is not None:
            config = config.with_executor(
                executor if executor is not None else config.executor,
                jobs if jobs is not None else config.jobs,
            )
        self.system = PimSystem(config)
        self._pipeline = PimTcPipeline(
            options=self.options, system=self.system, telemetry=telemetry
        )

    @property
    def telemetry(self) -> Telemetry:
        """The pipeline's telemetry recorder (span tree + metrics registry)."""
        return self._pipeline.telemetry

    # ------------------------------------------------------------------ counting
    def count(self, graph: COOGraph) -> TcResult:
        """Run the full pipeline; the graph should be canonicalized first."""
        return self._pipeline.run(graph)

    def count_local(self, graph: COOGraph):
        """Per-node (local) triangle counts — TRIEST-style extension.

        Returns a :class:`~repro.core.result.LocalTcResult` whose
        ``local_estimates`` vector satisfies ``sum == 3 * estimate`` and whose
        corrections (reservoir / monochromatic / uniform) mirror the global
        path element-wise.
        """
        return self._pipeline.run_local(graph)

    def with_options(self, **overrides) -> "PimTriangleCounter":
        """A copy of this counter with some options replaced (for sweeps)."""
        return PimTriangleCounter(
            options=replace(self.options, **overrides),
            system_config=self.system.config,
        )

    # ---------------------------------------------------------------- inspection
    @property
    def num_dpus(self) -> int:
        """PIM cores this configuration will allocate: ``binom(C+2, 3)``."""
        return num_triplets(self.options.num_colors)

    def max_colors(self) -> int:
        """Largest color count the configured system supports (paper: 23)."""
        return colors_for_dpus(self.system.config.total_dpus)

    def __repr__(self) -> str:
        o = self.options
        return (
            f"PimTriangleCounter(C={o.num_colors}, p={o.uniform_p}, "
            f"M={o.reservoir_capacity}, MG=({o.misra_gries_k},{o.misra_gries_t}))"
        )
