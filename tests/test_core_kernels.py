"""Kernel equivalence: reference tasklet kernel == fast kernel == oracle,
and the fast kernel's cost charges soundly bound the reference's real work."""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel_tc import count_triangles_reference
from repro.core.kernel_tc_fast import (
    KernelCosts,
    TriangleCountKernel,
    _count_forward_sparse,
    fast_count,
)
from repro.core.orient import orient_and_sort
from repro.graph.generators import erdos_renyi, hub_graph
from repro.graph.triangles import count_triangles
from repro.testing.strategies import graph_cases

from conftest import graph_strategy


class TestReferenceKernel:
    def test_single_triangle(self, triangle_graph):
        ref = count_triangles_reference(triangle_graph.src, triangle_graph.dst)
        assert ref.triangles == 1
        assert ref.binary_searches == 4

    def test_empty(self):
        ref = count_triangles_reference(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert ref.triangles == 0

    def test_buffer_size_does_not_change_count(self, small_graph):
        a = count_triangles_reference(small_graph.src, small_graph.dst, buffer_edges=4)
        b = count_triangles_reference(small_graph.src, small_graph.dst, buffer_edges=512)
        assert a.triangles == b.triangles
        assert a.merge_steps == b.merge_steps


class TestFastKernel:
    def test_matches_oracle(self, small_graph):
        fast = fast_count(small_graph.src, small_graph.dst, small_graph.num_nodes)
        assert fast.triangles == count_triangles(small_graph)

    def test_empty_sample(self):
        res = fast_count(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4
        )
        assert res.triangles == 0
        assert res.per_tasklet_instr.sum() == 0

    def test_cost_vectors_shapes(self, small_graph):
        res = fast_count(small_graph.src, small_graph.dst, small_graph.num_nodes, num_tasklets=12)
        assert res.per_tasklet_instr.shape == (12,)
        assert res.per_tasklet_dma_bytes.shape == (12,)

    def test_all_tasklets_get_work_on_large_samples(self, rngs):
        g = erdos_renyi(300, 6000, rngs.stream("w")).canonicalize()
        res = fast_count(g.src, g.dst, g.num_nodes)
        assert np.all(res.per_tasklet_instr > 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_with_reference(self, rngs, seed):
        g = erdos_renyi(70, 350, rngs.stream("a", seed)).canonicalize()
        ref = count_triangles_reference(g.src, g.dst)
        fast = fast_count(g.src, g.dst, g.num_nodes)
        assert fast.triangles == ref.triangles
        # The analytic merge-cost (suffix + deg) upper-bounds the real steps.
        assert fast.merge_steps_charged >= ref.merge_steps

    @settings(max_examples=25, deadline=None)
    @given(g=graph_strategy(max_nodes=22, max_edges=80))
    def test_property_equivalence(self, g):
        ref = count_triangles_reference(g.src, g.dst)
        fast = fast_count(g.src, g.dst, g.num_nodes)
        assert fast.triangles == ref.triangles == count_triangles(g)
        assert fast.merge_steps_charged >= ref.merge_steps

    def test_hub_graph_costs_more_per_edge(self, rngs):
        """The Fig. 3 effect in miniature: at equal edge counts, the hub graph's
        charged merge work far exceeds the flat graph's."""
        flat = erdos_renyi(2000, 6000, rngs.stream("flat")).canonicalize()
        hubby = hub_graph(2000, 4000, 2, 1000, rngs.stream("hub")).canonicalize()
        rf = fast_count(flat.src, flat.dst, flat.num_nodes)
        rh = fast_count(hubby.src, hubby.dst, hubby.num_nodes)
        per_edge_flat = rf.merge_steps_charged / rf.edges
        per_edge_hub = rh.merge_steps_charged / rh.edges
        assert per_edge_hub > 3 * per_edge_flat


class TestSparseCounting:
    def test_chunked_equals_unchunked(self, rngs):
        g = erdos_renyi(150, 2000, rngs.stream("c")).canonicalize()
        u, v, _ = orient_and_sort(g.src, g.dst)
        full = _count_forward_sparse(u, v, g.num_nodes, chunk_nnz=1 << 24)
        tiny = _count_forward_sparse(u, v, g.num_nodes, chunk_nnz=128)
        assert full == tiny == count_triangles(g)

    def test_empty(self):
        assert _count_forward_sparse(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5) == 0

    @settings(max_examples=60, deadline=None)
    @given(case=graph_cases(), raw=st.booleans())
    def test_matches_weighted_reference(self, case, raw):
        """Chunked or not, over every fuzz family and the raw streams (whose
        adversarial family carries duplicate and reversed records), the
        degree-oriented arithmetic equals the multiplicity-weighted count."""
        g = case.raw if raw else case.graph
        u, v, _ = orient_and_sort(g.src, g.dst)
        expected = _weighted_reference(u, v)
        assert _count_forward_sparse(u, v, g.num_nodes) == expected
        assert _count_forward_sparse(u, v, g.num_nodes, chunk_nnz=128) == expected
        if not raw:
            assert expected == count_triangles_reference(g.src, g.dst).triangles
            if case.exact is not None:
                assert expected == case.exact

    @pytest.mark.parametrize("chunk_nnz", [1, 128, 1 << 24])
    def test_hub_with_smallest_id(self, chunk_nnz):
        """Node 0 is adjacent to every leaf and a path runs through the
        leaves: each path edge closes one triangle with the hub, which the
        id orientation expands as a source and the degree orientation sinks.
        The star alone (leaves with empty forward adjacency) and the path
        alone (one-entry rows) close nothing."""
        n = 200
        leaves = np.arange(1, n, dtype=np.int64)
        star = (np.zeros(n - 1, dtype=np.int64), leaves)
        path = (leaves[:-1], leaves[1:])
        both = (np.concatenate([star[0], path[0]]), np.concatenate([star[1], path[1]]))
        for (src, dst), triangles in ((both, n - 2), (star, 0), (path, 0)):
            u, v, _ = orient_and_sort(src, dst)
            assert _count_forward_sparse(u, v, n, chunk_nnz=chunk_nnz) == triangles

    @pytest.mark.parametrize("chunk_nnz", [1, 128, 1 << 24])
    def test_equal_degrees_break_ties_by_id(self, chunk_nnz):
        """Every node of K_8 and of the triangular prism has the same degree,
        so the orientation rests on the id tie-break alone."""
        clique = [(a, b) for a in range(8) for b in range(a + 1, 8)]
        prism = [(8, 9), (9, 10), (8, 10), (11, 12), (12, 13), (11, 13),
                 (8, 11), (9, 12), (10, 13)]
        for edges, n, triangles in ((clique, 8, 56), (prism, 14, 2)):
            src, dst = (np.array(side, dtype=np.int64) for side in zip(*edges))
            u, v, _ = orient_and_sort(src, dst)
            assert _count_forward_sparse(u, v, n, chunk_nnz=chunk_nnz) == triangles

    def test_duplicate_records_multiply(self):
        """Duplicates weight each triangle by the product of its three edge
        multiplicities, as the id-ordered ``(A @ A) .* A`` did."""
        src = np.array([0, 0, 1, 0, 1, 1], dtype=np.int64)
        dst = np.array([1, 1, 2, 2, 2, 2], dtype=np.int64)
        u, v, _ = orient_and_sort(src, dst)
        assert _count_forward_sparse(u, v, 3) == 2 * 1 * 3 == _weighted_reference(u, v)

    def test_one_arithmetic_behind_every_caller(self):
        """The static kernel, the probe kernel and the dynamic counter all
        look the count arithmetic up as the same module-level function, the
        seam the benchmark's ``core.arith`` span wraps."""
        from repro.core import dynamic, kernel_tc_fast, kernel_tc_probe

        assert dynamic._count_forward_sparse is kernel_tc_fast._count_forward_sparse
        assert kernel_tc_probe._count_forward_sparse is kernel_tc_fast._count_forward_sparse


def _weighted_reference(u: np.ndarray, v: np.ndarray) -> int:
    """Brute-force ``sum A[a, b] * A[b, c] * A[a, c]`` over ``a < b < c``,
    ``A`` holding each oriented record's multiplicity."""
    mult = Counter(zip(u.tolist(), v.tolist()))
    succ = defaultdict(set)
    for a, b in mult:
        succ[a].add(b)
    return sum(
        m_ab * mult[(b, c)] * mult[(a, c)]
        for (a, b), m_ab in mult.items()
        for c in succ[a] & succ[b]
    )


class TestKernelOnDpu:
    def make_dpu(self):
        from repro.pimsim.config import CostModel, DpuConfig
        from repro.pimsim.dpu import Dpu

        return Dpu(dpu_id=0, config=DpuConfig(), cost=CostModel())

    def test_run_stores_count_and_stats(self, small_graph):
        dpu = self.make_dpu()
        dpu.mram.store("sample_src", small_graph.src.astype(np.int32), count_write=False)
        dpu.mram.store("sample_dst", small_graph.dst.astype(np.int32), count_write=False)
        kernel = TriangleCountKernel(num_nodes=small_graph.num_nodes)
        kernel.run(dpu)
        assert int(dpu.mram.load("triangle_count")[0]) == count_triangles(small_graph)
        stats = dpu.mram.load("kernel_stats")
        assert stats[0] == small_graph.num_edges
        assert dpu.compute_seconds() > 0

    def test_missing_sample_raises(self):
        from repro.common.errors import KernelLaunchError

        dpu = self.make_dpu()
        with pytest.raises(KernelLaunchError):
            TriangleCountKernel(num_nodes=4).run(dpu)

    def test_remap_does_not_change_count(self, rngs):
        g = hub_graph(500, 800, 1, 300, rngs.stream("r")).canonicalize()
        truth = count_triangles(g)
        deg = g.degrees()
        top = np.argsort(-deg)[:4].astype(np.int64)

        dpu = self.make_dpu()
        dpu.mram.store("sample_src", g.src.astype(np.int32), count_write=False)
        dpu.mram.store("sample_dst", g.dst.astype(np.int32), count_write=False)
        dpu.mram.store("remap_table", top, count_write=False)
        TriangleCountKernel(num_nodes=g.num_nodes).run(dpu)
        assert int(dpu.mram.load("triangle_count")[0]) == truth

    def test_remap_reduces_hub_merge_cost(self, rngs):
        g = hub_graph(500, 800, 1, 300, rngs.stream("r2")).canonicalize()
        deg = g.degrees()
        top = np.argsort(-deg)[:2].astype(np.int64)

        plain = self.make_dpu()
        plain.mram.store("sample_src", g.src.astype(np.int32), count_write=False)
        plain.mram.store("sample_dst", g.dst.astype(np.int32), count_write=False)
        TriangleCountKernel(num_nodes=g.num_nodes).run(plain)

        remapped = self.make_dpu()
        remapped.mram.store("sample_src", g.src.astype(np.int32), count_write=False)
        remapped.mram.store("sample_dst", g.dst.astype(np.int32), count_write=False)
        remapped.mram.store("remap_table", top, count_write=False)
        TriangleCountKernel(num_nodes=g.num_nodes).run(remapped)

        plain_steps = int(plain.mram.load("kernel_stats")[2])
        remap_steps = int(remapped.mram.load("kernel_stats")[2])
        assert remap_steps < plain_steps / 2


class TestKernelCosts:
    def test_buffer_capacity(self):
        costs = KernelCosts(edge_buffer_bytes=1024, edge_bytes=8)
        assert costs.edge_buffer_edges == 128

    def test_default_plan_is_paper_shaped(self):
        costs = KernelCosts()
        # 3 KiB per tasklet x 16 + shared fits in the 64-KiB WRAM.
        assert 16 * (
            costs.edge_buffer_bytes + costs.region_buffer_bytes + costs.stack_bytes
        ) + 2048 <= 64 * 1024
