"""First-node region index over a sorted edge sample (paper Fig. 2).

After sorting, edges sharing a first node form a contiguous *region*.  The
DPU builds a table with one entry per region — ``(first_node, start_offset)``
— and the counting phase binary-searches this table to locate the region of a
given node ``v`` (the neighbors of ``v``).

:class:`RegionIndex` is the NumPy equivalent: ``nodes`` (sorted unique first
nodes) and ``starts`` / ``ends`` offsets into the edge arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RegionIndex", "build_region_index"]


@dataclass(frozen=True)
class RegionIndex:
    """Region table of a sorted, oriented edge sample."""

    nodes: np.ndarray  # distinct first nodes, ascending
    starts: np.ndarray  # first edge index of each region
    ends: np.ndarray  # one-past-last edge index of each region

    @property
    def num_regions(self) -> int:
        return int(self.nodes.size)

    def lookup(self, node: int) -> tuple[int, int]:
        """Binary search one node; returns ``(start, end)`` (empty if absent).

        Mirrors the DPU's per-edge search.  The static kernels price a whole
        sample from its run lengths instead (see
        :func:`~repro.core.kernel_tc_fast.fast_count`); the dynamic counter,
        whose core-tagged ids rule out a dense table, uses
        :meth:`lookup_many`.
        """
        i = int(np.searchsorted(self.nodes, node))
        if i < self.nodes.size and self.nodes[i] == node:
            return int(self.starts[i]), int(self.ends[i])
        return 0, 0

    def lookup_many(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized region lookup; absent nodes get an empty ``(0, 0)`` span."""
        idx = np.searchsorted(self.nodes, nodes)
        idx_c = np.minimum(idx, max(self.nodes.size - 1, 0))
        if self.nodes.size:
            found = self.nodes[idx_c] == nodes
        else:
            found = np.zeros(nodes.shape, dtype=bool)
        starts = np.where(found, self.starts[idx_c] if self.nodes.size else 0, 0)
        ends = np.where(found, self.ends[idx_c] if self.nodes.size else 0, 0)
        return starts.astype(np.int64), ends.astype(np.int64)

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """Forward degree (region length) of each queried node; 0 if absent."""
        starts, ends = self.lookup_many(nodes)
        return ends - starts

    def search_steps(self) -> int:
        """Binary-search step count for one lookup: ``ceil(log2(R + 1))``."""
        return int(np.ceil(np.log2(self.num_regions + 1))) if self.num_regions else 1

    def table_bytes(self, entry_bytes: int = 8) -> int:
        """MRAM footprint of the table (node + offset per region)."""
        return self.num_regions * entry_bytes


def build_region_index(u_sorted: np.ndarray) -> RegionIndex:
    """Build the region table from the sorted first-node column.

    One run-length pass: a region starts wherever the column changes value.
    """
    m = int(u_sorted.size)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return RegionIndex(nodes=empty, starts=empty.copy(), ends=empty.copy())
    change = np.empty(m, dtype=bool)
    change[0] = True
    np.not_equal(u_sorted[1:], u_sorted[:-1], out=change[1:])
    starts = np.flatnonzero(change).astype(np.int64, copy=False)
    ends = np.append(starts[1:], m)
    return RegionIndex(nodes=u_sorted[starts].astype(np.int64), starts=starts, ends=ends)
