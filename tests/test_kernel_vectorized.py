"""Edge cases of the vectorized count arithmetic behind ``fast_count``.

:func:`repro.core.kernel_tc_fast.fast_count` counts with the chunked sparse
product ``(A @ A) .* A`` over a ``(degree, id)`` re-orientation and charges
costs from the id-oriented sample.  These tests pin the worked sample's
charges, the duplicate-edge multiplicity semantics, empty and one-entry
adjacency rows, the chunked hub-expansion path and the pipeline's variant
check.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from repro.core.kernel_tc_fast import TriangleCountKernel, _count_forward_sparse, fast_count
from repro.core.orient import orient_and_sort

# The worked sample from docs/algorithm.md (test_kernel_cost_golden.py):
# 6 nodes, 8 edges, 2 triangles.
GOLDEN_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (1, 5)]


@pytest.fixture
def golden_sample():
    src = np.array([e[0] for e in GOLDEN_EDGES], dtype=np.int64)
    dst = np.array([e[1] for e in GOLDEN_EDGES], dtype=np.int64)
    return src, dst


def weighted_triangles(src: np.ndarray, dst: np.ndarray) -> int:
    """Brute force over node triples: each triangle weighted by the product
    of its three undirected edge multiplicities; self-loops close nothing."""
    mult = Counter(
        (min(a, b), max(a, b)) for a, b in zip(src.tolist(), dst.tolist()) if a != b
    )
    nodes = sorted({x for edge in mult for x in edge})
    return sum(
        mult[(a, b)] * mult[(b, c)] * mult[(a, c)]
        for a, b, c in combinations(nodes, 3)
    )


class TestGoldenCosts:
    """The hand-computed charges of the worked sample."""

    def test_count_and_merge_steps(self, golden_sample):
        res = fast_count(*golden_sample, num_nodes=6)
        assert res.triangles == 2
        assert res.merge_steps_charged == 12
        assert res.binary_searches == 8
        assert res.regions == 5

    def test_instruction_total(self, golden_sample):
        # per-edge 256 + merge 60 + balanced 204.
        res = fast_count(*golden_sample, num_nodes=6)
        assert float(res.per_tasklet_instr.sum()) == pytest.approx(520.0)


class TestIntersectionEdgeCases:
    """Targeted shapes where a vectorized intersection can go wrong."""

    def test_empty_sample(self):
        res = fast_count(np.empty(0, np.int64), np.empty(0, np.int64), 5)
        assert res.triangles == 0 and res.edges == 0

    def test_single_edge_rows(self):
        # A path: every adjacency row has exactly one entry, no triangles.
        src = np.arange(6, dtype=np.int64)
        dst = src + 1
        res = fast_count(src, dst, 7)
        assert res.triangles == 0
        assert res.edges == 6

    def test_empty_adjacency_lookups(self):
        # Star from node 0: every dst is a leaf with empty forward adjacency.
        leaves = 20
        src = np.zeros(leaves, dtype=np.int64)
        dst = np.arange(1, leaves + 1, dtype=np.int64)
        res = fast_count(src, dst, leaves + 1)
        assert res.triangles == 0
        assert res.edges == leaves

    def test_duplicate_heavy_stream(self):
        """Duplicate edges multiply triangle contributions: a triangle with
        each edge doubled counts 2*2*2 = 8 ways."""
        src = np.array([0, 0, 1, 1, 0, 0], dtype=np.int64)
        dst = np.array([1, 1, 2, 2, 2, 2], dtype=np.int64)
        assert fast_count(src, dst, 3).triangles == 8

    def test_duplicate_fuzz_matches_sparse(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(1, 80))
            # Tiny ID range: lots of duplicates and self-loops by design.
            src = rng.integers(0, n, m)
            dst = rng.integers(0, n, m)
            u, v, _ = orient_and_sort(src, dst)
            expected = weighted_triangles(src, dst)
            assert fast_count(src, dst, n).triangles == expected
            assert _count_forward_sparse(u, v, n, chunk_nnz=1) == expected

    def test_all_mono_triangles_single_color(self):
        """C=1 and C=2 pipelines route every triangle through the mono path;
        the kernel sees whole (or near-whole) graphs."""
        from repro.core.api import PimTriangleCounter
        from repro.graph.generators import erdos_renyi
        from repro.graph.triangles import count_triangles

        g = erdos_renyi(60, 400, np.random.default_rng(5)).canonicalize()
        exact = count_triangles(g)
        for colors in (1, 2):
            merge = PimTriangleCounter(num_colors=colors, seed=0).count(g)
            probe = PimTriangleCounter(
                num_colors=colors, seed=0, kernel_variant="probe"
            ).count(g)
            assert merge.count == probe.count == exact

    def test_hub_rows_longer_than_chunk(self):
        """A hub whose adjacency row exceeds the expansion chunk forces the
        multi-chunk path; counts must not change with the chunk size."""
        n = 120
        hub_src = np.zeros(n - 1, dtype=np.int64)
        hub_dst = np.arange(1, n, dtype=np.int64)
        # Ring among the leaves creates wedges through the hub's big row.
        ring_src = np.arange(1, n - 1, dtype=np.int64)
        ring_dst = ring_src + 1
        u, v, _ = orient_and_sort(
            np.concatenate([hub_src, ring_src]), np.concatenate([hub_dst, ring_dst])
        )
        for chunk in (1, 7, 64, 1 << 22):
            assert _count_forward_sparse(u, v, n, chunk_nnz=chunk) == n - 2


class TestKernelObject:
    def test_keeps_trace_compatible_name(self):
        # The trace recorder embeds kernel.name in load/launch events.
        assert TriangleCountKernel(num_nodes=10).name == "triangle_count"

    def test_pipeline_rejects_unknown_variant(self):
        from repro.common.errors import ConfigurationError
        from repro.core.host import PimTcOptions

        with pytest.raises(ConfigurationError):
            PimTcOptions(num_colors=2, kernel_variant="fastervec")
