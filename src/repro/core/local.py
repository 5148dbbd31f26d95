"""Local (per-node) triangle counting on the PIM system.

An extension in the spirit of the paper's approximation source, TRIÈST
(reference [48]), which estimates *local* triangle counts under the same
reservoir scheme.  The coloring partition supports it unchanged:

* a triangle with >= 2 distinct node colors lives on exactly one PIM core, so
  its three node increments happen exactly once system-wide;
* a monochromatic triangle is counted by ``C`` cores, and the single-color
  core of its color counts exactly those — so the per-node correction is the
  same ``-(C-1) x`` subtraction, applied *vector-wise*;
* reservoir and uniform corrections divide the whole vector by the same
  survival probabilities as the global count.

Cost-wise the kernel adds a per-node accumulator array in MRAM: every
triangle performs three read-modify-write increments (WRAM-cached, charged as
DMA traffic), and the result gather moves ``num_nodes * 8`` bytes per core —
a realistically *expensive* gather that shows up in the local pipeline's
triangle-count phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..common.errors import KernelLaunchError
from ..pimsim.dpu import Dpu
from ..pimsim.wram import WramPlan
from .kernel_tc_fast import KernelCosts, fast_count
from .orient import orient_and_sort
from .remap import RemapTable, apply_remap

__all__ = ["LocalCountKernel", "local_counts_from_arrays"]


def local_counts_from_arrays(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, chunk_nnz: int = 1 << 24
) -> np.ndarray:
    """Per-node triangle counts of one edge sample (no dedup performed).

    Uses the symmetric-adjacency identity ``local = ((S @ S) .* S).rowsum / 2``
    with row chunking; the sample must be duplicate-free (all DPU samples are).
    """
    n = int(num_nodes)
    local = np.zeros(n, dtype=np.int64)
    u, v, _ = orient_and_sort(src, dst)
    m = int(u.size)
    if m == 0:
        return local
    ones = np.ones(2 * m, dtype=np.int64)
    sym = sp.csr_matrix(
        (ones, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    )
    deg = np.diff(sym.indptr)
    cs = np.concatenate(([0], np.cumsum(deg[sym.indices])))
    row_wedges = cs[sym.indptr[1:]] - cs[sym.indptr[:-1]]
    cum = np.concatenate(([0], np.cumsum(row_wedges)))
    row = 0
    while row < n:
        stop = int(np.searchsorted(cum, cum[row] + chunk_nnz, side="right"))
        stop = min(max(stop - 1, row + 1), n)
        block = sym[row:stop, :]
        closed = (block @ sym).multiply(block)
        local[row:stop] = np.asarray(closed.sum(axis=1)).ravel() // 2
        row = stop
    return local


@dataclass
class LocalCountKernel:
    """SPMD kernel computing per-node triangle counts over each core's sample.

    MRAM inputs match :class:`~repro.core.kernel_tc_fast.TriangleCountKernel`
    (``sample_src``/``sample_dst`` and optional ``remap_table``); outputs are
    ``local_counts`` (int64 per original node) plus the usual
    ``triangle_count`` scalar for cross-checking.
    """

    num_nodes: int
    costs: KernelCosts = field(default_factory=KernelCosts)
    name: str = "local_triangle_count"

    #: Extra instructions per triangle for the three accumulator updates.
    accumulate_instr: float = 12.0

    def wram_plan(self, dpu: Dpu) -> WramPlan:
        c = self.costs
        return WramPlan(
            per_tasklet_buffers={
                "edge_buffer": c.edge_buffer_bytes,
                "region_buffer": c.region_buffer_bytes,
                # Accumulator write-combining buffer.
                "acc_buffer": 512,
                "stack": c.stack_bytes - 512,
            },
            shared_bytes=2048,
        )

    def run(self, dpu: Dpu) -> None:
        if not dpu.mram.has("sample_src"):
            raise KernelLaunchError("sample_src missing: host must scatter the sample first")
        src = dpu.mram.load("sample_src", count_read=False).astype(np.int64)
        dst = dpu.mram.load("sample_dst", count_read=False).astype(np.int64)
        eff_nodes = self.num_nodes
        table: RemapTable | None = None
        if dpu.mram.has("remap_table"):
            table = RemapTable(
                nodes=dpu.mram.load("remap_table", count_read=False), num_nodes=self.num_nodes
            )
            src, dst = apply_remap(table, src, dst)
            eff_nodes = table.remapped_num_nodes
            dpu.charge_balanced(self.costs.remap_instr_per_edge * src.size)

        # Reuse the counting kernel's cost derivation (search + merge work).
        stats = fast_count(
            src, dst, eff_nodes, costs=self.costs, num_tasklets=dpu.config.num_tasklets
        )
        dpu.charge_instructions_all(stats.per_tasklet_instr)
        dpu.charge_mram_read_all(
            stats.per_tasklet_dma_bytes.astype(np.int64),
            requests=stats.per_tasklet_dma_requests.astype(np.int64),
        )
        # Accumulator updates: three read-modify-write int64 ops per triangle,
        # write-combined through the WRAM acc buffer.
        triangles = stats.triangles
        dpu.charge_balanced(self.accumulate_instr * triangles)
        rmw_bytes = 3 * triangles * 16  # 8 read + 8 write per increment
        per = rmw_bytes // dpu.config.num_tasklets
        dpu.charge_mram_write_all(int(per // 2), requests=max(1, triangles // 64))
        dpu.charge_mram_read_all(int(per // 2), requests=0)

        local = local_counts_from_arrays(src, dst, eff_nodes)
        if table is not None and table.t > 0:
            # Fold the remapped IDs' counts back onto the original nodes.
            folded = local[: self.num_nodes].copy()
            folded[table.nodes] += local[table.new_ids()]
            local = folded
        dpu.mram.store("local_counts", local.astype(np.int64), count_write=False)
        dpu.mram.store(
            "triangle_count", np.array([triangles], dtype=np.int64), count_write=False
        )
