"""Vectorized DPU triangle-counting kernel with instruction/DMA accounting.

This is the production counterpart of :mod:`~repro.core.kernel_tc`.  It
executes the same algorithm — orient, sort, region-index, then per-edge
binary search + merge intersection (paper Sec. 3.4) — but computes the count
with sparse-matrix algebra (``(A @ A) .* A`` over a ``(degree, id)``
re-orientation of the sample, chunked to bound memory) and derives the
*cost* a real DPU kernel would incur analytically from exact per-edge
quantities of the id-oriented sample:

* binary search: ``ceil(log2(R + 1))`` steps per edge into the region table;
* merge: the suffix of ``u``'s region after the current edge plus the full
  region of ``v`` — the upper bound on merge advances, and the quantity whose
  blow-up on high-degree nodes produces the paper's Fig. 3 effect;
* MRAM traffic: streaming the edge buffer per tasklet block plus one buffered
  DMA read of ``v``'s region per processed edge.

Edges are dealt to tasklets in WRAM-buffer-sized blocks, round-robin, exactly
like the "retrieve a buffer of edges until none remain" loop; the resulting
per-tasklet cost vectors feed the DPU's water-filling pipeline model.

The test suite pins this kernel's count to the reference kernel's and to the
oracle, and checks the charged merge cost dominates the reference's measured
merge steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..common.errors import KernelLaunchError
from ..pimsim.dpu import Dpu
from ..pimsim.wram import WramPlan
from .orient import orient_and_sort
from .region_index import build_region_index
from .remap import RemapTable, apply_remap

__all__ = ["KernelCosts", "FastCountResult", "fast_count", "TriangleCountKernel"]


@dataclass(frozen=True)
class KernelCosts:
    """Instructions the real C kernel spends per unit of algorithmic work.

    Values are rough DPU ISA estimates (32-bit RISC, no SIMD): a merge step is
    a compare + branch + pointer bump + bounds check; a binary-search step adds
    an address computation and a WRAM load; etc.  Experiments only rely on
    their ratios staying within a plausible band.
    """

    orient_instr: float = 4.0
    sort_instr_per_step: float = 6.0
    region_instr_per_edge: float = 3.0
    remap_instr_per_edge: float = 12.0
    edge_loop_instr: float = 8.0
    binsearch_instr_per_step: float = 8.0
    merge_instr_per_step: float = 5.0
    triangle_instr: float = 2.0
    insert_instr_per_edge: float = 6.0
    #: Bytes per edge in MRAM: two 32-bit node IDs, as in the real kernel.
    edge_bytes: int = 8

    #: Per-tasklet WRAM buffers (bytes): staged edges, v-region, u-suffix.
    edge_buffer_bytes: int = 1024
    region_buffer_bytes: int = 1024
    stack_bytes: int = 1024

    @property
    def edge_buffer_edges(self) -> int:
        return max(1, self.edge_buffer_bytes // self.edge_bytes)


@dataclass(frozen=True)
class FastCountResult:
    """Count plus the cost vectors of one DPU sample."""

    triangles: int
    edges: int
    regions: int
    merge_steps_charged: int
    binary_searches: int
    per_tasklet_instr: np.ndarray
    per_tasklet_dma_bytes: np.ndarray
    per_tasklet_dma_requests: np.ndarray
    sort_mram_bytes: int


def _count_forward_sparse(
    u: np.ndarray, v: np.ndarray, num_nodes: int, chunk_nnz: int = 1 << 24
) -> int:
    """Triangles of an oriented edge list via chunked ``(A @ A) .* A``.

    The sample arrives in the kernel's id orientation (``u < v``, the order
    every charge is computed in), but the arithmetic re-orients each edge
    from its lower to its higher ``(degree, id)`` endpoint (Chiba-Nishizeki)
    before multiplying.  Any acyclic orientation counts each triangle once,
    and ``(A @ A)[x, z]`` counts the 2-paths ``x -> y -> z``, so masking by
    ``A`` keeps the closed ones.  The degree orientation bounds every row's
    out-degree by ``O(sqrt(m))``, so a hub no longer expands its whole
    neighbourhood through every neighbour: the wedge count, and with it the
    scipy product, is what shrinks.  Row chunks bound the intermediate's nnz
    by ``chunk_nnz``.

    Duplicate records are summed into ``A``'s entries, so the count is the
    multiplicity-weighted ``sum A[x, y] * A[y, z] * A[x, z]`` under any
    acyclic orientation.

    When ``(u, v)`` is lexicographically sorted (the kernel's post-sort
    state), the COO-to-CSR pass already emits each row's re-oriented
    (lower-id) entries ahead of its kept (higher-id) ones, both ascending, so
    the matrix comes out canonical with no index sort.
    """
    m = int(u.size)
    if m == 0:
        return 0
    n = int(num_nodes)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    flip = np.take(deg, u) > np.take(deg, v)
    rows = np.where(flip, v, u)
    cols = u ^ v ^ rows  # the other endpoint
    adj = sp.coo_matrix((np.ones(m, dtype=np.int64), (rows, cols)), shape=(n, n)).tocsr()
    # Wedges: every node pairs each in-neighbour with each out-neighbour (an
    # upper bound when duplicate records were summed into one entry).
    out_deg = np.diff(adj.indptr).astype(np.int64)
    if int(out_deg @ (deg - out_deg)) <= chunk_nnz:
        return _closed_paths(adj, adj)
    # Wedge work per row: sum over the row's neighbors of their out-degree.
    indptr = adj.indptr
    cs = np.concatenate(([0], np.cumsum(out_deg[adj.indices])))
    cum = np.concatenate(([0], np.cumsum(cs[indptr[1:]] - cs[indptr[:-1]])))
    total = 0
    row = 0
    while row < n:
        stop = int(np.searchsorted(cum, cum[row] + chunk_nnz, side="right"))
        stop = min(max(stop - 1, row + 1), n)
        total += _closed_paths(adj[row:stop, :], adj)
        row = stop
    return total


def _closed_paths(rows: sp.csr_matrix, adj: sp.csr_matrix) -> int:
    """``sum((rows @ adj) .* rows)``: 2-paths from ``rows`` closed by an edge.

    Sums the product's stored values directly; ``.sum()`` on the matrix would
    first canonicalize it, sorting every row's unsorted product indices.
    """
    return int((rows @ adj).multiply(rows).data.sum())


def fast_count(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    costs: KernelCosts | None = None,
    num_tasklets: int = 16,
) -> FastCountResult:
    """Count triangles over one sample and compute its per-tasklet cost split.

    The count comes from :func:`_count_forward_sparse`; every *charge* is
    priced on the id-oriented, sorted ``(u, v)`` arrays of
    :func:`~repro.core.orient.orient_and_sort` and its region index, so the
    cost model never sees how the arithmetic orients the edges.
    """
    costs = costs or KernelCosts()
    u, v, ostats = orient_and_sort(src, dst, wram_run_edges=costs.edge_buffer_edges)
    index = build_region_index(u)
    m = int(u.size)
    t = int(num_tasklets)
    if m == 0:
        zeros = np.zeros(t, dtype=np.float64)
        return FastCountResult(0, 0, 0, 0, 0, zeros, zeros.copy(), zeros.copy(), 0)

    triangles = _count_forward_sparse(u, v, num_nodes)

    # --- per-edge cost quantities -------------------------------------------
    bs_steps = index.search_steps()
    d_v = index.degrees_of(v)  # forward degree of each edge's second node
    # Suffix of u's own region after the edge itself.
    rid = np.searchsorted(index.nodes, u)
    suffix_u = index.ends[rid] - np.arange(m, dtype=np.int64) - 1
    merge_steps = np.where(d_v > 0, suffix_u + d_v, 0)
    per_edge_instr = (
        costs.edge_loop_instr
        + costs.binsearch_instr_per_step * bs_steps
        + costs.merge_instr_per_step * merge_steps
    )

    # --- tasklet assignment: buffer blocks round-robin -----------------------
    buf = costs.edge_buffer_edges
    tasklet_of_edge = (np.arange(m, dtype=np.int64) // buf) % t
    instr = np.bincount(tasklet_of_edge, weights=per_edge_instr, minlength=t)
    # Balanced charges: orient + sort + region build + triangle bookkeeping.
    balanced = (
        costs.orient_instr * m
        + costs.sort_instr_per_step * ostats.sort_steps
        + costs.region_instr_per_edge * m
        + costs.triangle_instr * triangles
    )
    instr += balanced / t

    # --- DMA traffic ----------------------------------------------------------
    eb = costs.edge_bytes
    # Edge-buffer streaming: one request per block.
    edge_bytes_per_tasklet = np.bincount(
        tasklet_of_edge, weights=np.full(m, float(eb)), minlength=t
    )
    blocks_per_tasklet = np.bincount(
        np.arange((m + buf - 1) // buf, dtype=np.int64) % t, minlength=t
    ).astype(np.float64)
    # v-region reads, buffered through the region WRAM buffer.
    v_bytes = d_v.astype(np.float64) * eb
    v_requests = np.where(d_v > 0, np.ceil(v_bytes / costs.region_buffer_bytes), 0.0)
    dma_bytes = edge_bytes_per_tasklet + np.bincount(
        tasklet_of_edge, weights=v_bytes, minlength=t
    )
    dma_requests = blocks_per_tasklet + np.bincount(
        tasklet_of_edge, weights=v_requests, minlength=t
    )
    # Sort passes stream the whole sample through MRAM (read + write).
    sort_mram = 2 * m * eb * ostats.mram_passes
    dma_bytes += sort_mram / t
    dma_requests += np.ceil(sort_mram / t / costs.edge_buffer_bytes)

    return FastCountResult(
        triangles=int(triangles),
        edges=m,
        regions=index.num_regions,
        merge_steps_charged=int(merge_steps.sum()),
        binary_searches=m,
        per_tasklet_instr=instr,
        per_tasklet_dma_bytes=dma_bytes,
        per_tasklet_dma_requests=dma_requests,
        sort_mram_bytes=int(sort_mram),
    )


@dataclass
class TriangleCountKernel:
    """The SPMD kernel loaded on every PIM core for the counting phase.

    Expects MRAM symbols prepared by the host pipeline:

    * ``sample_src`` / ``sample_dst`` — the (possibly reservoir-sampled) edges;
    * optionally ``remap_table`` — the Misra-Gries top-``t`` node IDs
      (broadcast; most frequent first).

    Produces ``triangle_count`` (1-element int64) and ``kernel_stats``
    (edges, regions, merge steps charged).

    The kernel is a stateless picklable dataclass and ``run`` depends only on
    the target DPU's MRAM contents — the contract the process execution
    engine relies on to ship (kernel, DPU) pairs to workers and merge the
    mutated DPUs back bit-identically (see ``repro.pimsim.executor``).
    """

    num_nodes: int
    costs: KernelCosts = field(default_factory=KernelCosts)
    name: str = "triangle_count"

    def wram_plan(self, dpu: Dpu) -> WramPlan:
        c = self.costs
        return WramPlan(
            per_tasklet_buffers={
                "edge_buffer": c.edge_buffer_bytes,
                "region_buffer": c.region_buffer_bytes,
                "stack": c.stack_bytes,
            },
            shared_bytes=2048,
        )

    def run(self, dpu: Dpu) -> None:
        if not dpu.mram.has("sample_src"):
            raise KernelLaunchError("sample_src missing: host must scatter the sample first")
        src = dpu.mram.load("sample_src", count_read=False)
        dst = dpu.mram.load("sample_dst", count_read=False)
        num_nodes = self.num_nodes
        if dpu.mram.has("remap_table"):
            table = RemapTable(
                nodes=dpu.mram.load("remap_table", count_read=False), num_nodes=num_nodes
            )
            src, dst = apply_remap(table, src, dst)
            num_nodes = table.remapped_num_nodes
            # One pass over the sample: read, look up both endpoints, write back.
            dpu.charge_balanced(self.costs.remap_instr_per_edge * src.size)
            per = np.zeros(dpu.config.num_tasklets)
            per += 2.0 * src.size * self.costs.edge_bytes / dpu.config.num_tasklets
            for tk in range(dpu.config.num_tasklets):
                dpu.charge_mram_read(tk, int(per[tk] / 2), requests=1)
                dpu.charge_mram_write(tk, int(per[tk] / 2), requests=1)

        result = fast_count(
            src,
            dst,
            num_nodes,
            costs=self.costs,
            num_tasklets=dpu.config.num_tasklets,
        )
        dpu.charge_instructions_all(result.per_tasklet_instr)
        for tk in range(dpu.config.num_tasklets):
            dpu.charge_mram_read(
                tk,
                int(result.per_tasklet_dma_bytes[tk]),
                requests=int(result.per_tasklet_dma_requests[tk]),
            )
        dpu.mram.store(
            "triangle_count", np.array([result.triangles], dtype=np.int64), count_write=False
        )
        dpu.mram.store(
            "kernel_stats",
            np.array(
                [result.edges, result.regions, result.merge_steps_charged], dtype=np.int64
            ),
            count_write=False,
        )
