"""Alternative counting kernel: binary-search probes instead of merges.

The paper's kernel (Sec. 3.4) merge-intersects the two forward adjacency
lists.  The classic alternative — used by several CPU/GPU triangle counters —
probes: for each edge ``(u, v)`` and each ``w`` in ``N+(v)``, binary-search
the edge ``(u, w)`` in the sorted sample.  Per edge the merge costs
``suffix(u) + deg+(v)`` sequential steps while the probe costs
``deg+(v) * log2(m)`` random-access steps; the trade-off flips with the shape
of the adjacency lists:

* long ``suffix(u)`` + short ``N+(v)`` (hub as first node): probing wins —
  it never walks the hub's list;
* comparable list lengths: merging wins by the ``log`` factor and by its
  streaming (DMA-friendly) access pattern.

The ``abl_kernels`` experiment quantifies this on the dataset analogues; the
functional count is identical (asserted by tests against the merge kernel and
the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import KernelLaunchError
from ..pimsim.dpu import Dpu
from ..pimsim.wram import WramPlan
from .kernel_tc_fast import KernelCosts, _count_forward_sparse, _forward_degrees
from .orient import orient_and_sort
from .region_index import build_region_index
from .remap import RemapTable, apply_remap

__all__ = ["ProbeCountResult", "probe_count", "ProbeTriangleCountKernel"]


@dataclass(frozen=True)
class ProbeCountResult:
    """Count and cost split of the probe kernel over one sample."""

    triangles: int
    edges: int
    probes: int
    probe_steps: int
    per_tasklet_instr: np.ndarray
    per_tasklet_dma_bytes: np.ndarray
    per_tasklet_dma_requests: np.ndarray


def probe_count(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    costs: KernelCosts | None = None,
    num_tasklets: int = 16,
) -> ProbeCountResult:
    """Count triangles with per-wedge binary probes; charge the probe costs.

    Probe work per edge: one region search for ``v`` plus ``deg+(v)`` probes
    of ``ceil(log2(m))`` steps each, every step touching one edge record in
    MRAM (random access: a DMA request per WRAM-line miss is charged via a
    per-probe request estimate).
    """
    costs = costs or KernelCosts()
    u, v, ostats = orient_and_sort(src, dst, wram_run_edges=costs.edge_buffer_edges)
    index = build_region_index(u)
    m = int(u.size)
    t = int(num_tasklets)
    if m == 0:
        zeros = np.zeros(t, dtype=np.float64)
        return ProbeCountResult(0, 0, 0, 0, zeros, zeros.copy(), zeros.copy())

    triangles = _count_forward_sparse(u, v, num_nodes)

    d_v = _forward_degrees(index, v, num_nodes)
    log_m = max(1, int(np.ceil(np.log2(m + 1))))
    region_steps = index.search_steps()
    probes_per_edge = d_v
    probe_steps_per_edge = d_v * log_m
    per_edge_instr = (
        costs.edge_loop_instr
        + costs.binsearch_instr_per_step * region_steps
        + costs.binsearch_instr_per_step * probe_steps_per_edge
    )

    buf = costs.edge_buffer_edges
    tasklet_of_edge = (np.arange(m, dtype=np.int64) // buf) % t
    instr = np.bincount(tasklet_of_edge, weights=per_edge_instr, minlength=t)
    balanced = (
        costs.orient_instr * m
        + costs.sort_instr_per_step * ostats.sort_steps
        + costs.region_instr_per_edge * m
        + costs.triangle_instr * triangles
    )
    instr += balanced / t

    eb = costs.edge_bytes
    # Each probe step is a random MRAM touch of one edge record; successive
    # steps of one binary search share no locality, so every step is charged
    # a DMA transfer of one WRAM line's worth of its edge.
    probe_bytes = probe_steps_per_edge.astype(np.float64) * eb
    probe_requests = probe_steps_per_edge.astype(np.float64)
    # v's region itself is streamed once per edge (to enumerate the w's).
    region_bytes = d_v.astype(np.float64) * eb
    region_requests = np.where(
        d_v > 0, np.ceil(region_bytes / costs.region_buffer_bytes), 0.0
    )
    dma_bytes = np.bincount(
        tasklet_of_edge, weights=probe_bytes + region_bytes + eb, minlength=t
    )
    dma_requests = np.bincount(
        tasklet_of_edge, weights=probe_requests + region_requests, minlength=t
    )
    sort_mram = 2 * m * eb * ostats.mram_passes
    dma_bytes += sort_mram / t
    dma_requests += np.ceil(sort_mram / t / costs.edge_buffer_bytes)

    return ProbeCountResult(
        triangles=int(triangles),
        edges=m,
        probes=int(probes_per_edge.sum()),
        probe_steps=int(probe_steps_per_edge.sum()),
        per_tasklet_instr=instr,
        per_tasklet_dma_bytes=dma_bytes,
        per_tasklet_dma_requests=dma_requests,
    )


@dataclass
class ProbeTriangleCountKernel:
    """SPMD kernel variant using binary-search probes (same MRAM interface)."""

    num_nodes: int
    costs: KernelCosts = field(default_factory=KernelCosts)
    name: str = "triangle_count_probe"

    def wram_plan(self, dpu: Dpu) -> WramPlan:
        c = self.costs
        return WramPlan(
            per_tasklet_buffers={
                "edge_buffer": c.edge_buffer_bytes,
                "probe_line": 64,
                "stack": c.stack_bytes,
            },
            shared_bytes=2048,
        )

    def run(self, dpu: Dpu) -> None:
        if not dpu.mram.has("sample_src"):
            raise KernelLaunchError("sample_src missing: host must scatter the sample first")
        src = dpu.mram.load("sample_src", count_read=False).astype(np.int64)
        dst = dpu.mram.load("sample_dst", count_read=False).astype(np.int64)
        num_nodes = self.num_nodes
        if dpu.mram.has("remap_table"):
            table = RemapTable(
                nodes=dpu.mram.load("remap_table", count_read=False), num_nodes=num_nodes
            )
            src, dst = apply_remap(table, src, dst)
            num_nodes = table.remapped_num_nodes
            dpu.charge_balanced(self.costs.remap_instr_per_edge * src.size)

        result = probe_count(
            src, dst, num_nodes, costs=self.costs, num_tasklets=dpu.config.num_tasklets
        )
        dpu.charge_instructions_all(result.per_tasklet_instr)
        dpu.charge_mram_read_all(
            result.per_tasklet_dma_bytes.astype(np.int64),
            requests=result.per_tasklet_dma_requests.astype(np.int64),
        )
        dpu.mram.store(
            "triangle_count", np.array([result.triangles], dtype=np.int64), count_write=False
        )
        dpu.mram.store(
            "kernel_stats",
            np.array([result.edges, result.probes, result.probe_steps], dtype=np.int64),
            count_write=False,
        )
