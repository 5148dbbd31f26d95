"""Edge partition invariants — the heart of the communication-free scheme."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.partition import (
    ColoringPartitioner,
    DegreePartitioner,
    make_partitioner as strategy_partitioner,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.graph.coo import COOGraph
from repro.graph.generators import erdos_renyi, hub_graph
from repro.graph.triangles import count_triangles

from conftest import graph_strategy


def make_partitioner(c: int, seed: int = 0) -> ColoringPartitioner:
    return ColoringPartitioner(c, RngFactory(seed).stream("c"))


def make_degree_partitioner(c: int, seed: int = 0) -> DegreePartitioner:
    return DegreePartitioner(c, RngFactory(seed).stream("c"))


class TestAssignment:
    def test_total_routed_is_c_times_m(self, small_graph):
        for c in (1, 2, 5):
            part = make_partitioner(c).assign(small_graph)
            assert part.total_routed == c * small_graph.num_edges

    def test_no_duplicate_edges_within_dpu(self, small_graph):
        part = make_partitioner(4).assign(small_graph)
        n = small_graph.num_nodes
        for src, dst in part.per_dpu:
            keys = np.minimum(src, dst) * n + np.maximum(src, dst)
            assert np.unique(keys).size == keys.size

    def test_empty_graph(self):
        g = COOGraph.from_edges([], num_nodes=4)
        part = make_partitioner(3).assign(g)
        assert part.total_routed == 0
        assert len(part.per_dpu) == 10

    def test_counts_column_matches_arrays(self, small_graph):
        part = make_partitioner(3).assign(small_graph)
        for count, (src, _) in zip(part.counts.tolist(), part.per_dpu):
            assert count == src.size

    def test_edges_land_on_compatible_dpus_only(self, small_graph):
        p = make_partitioner(4)
        part = p.assign(small_graph)
        cu_all = p.node_colors(np.arange(small_graph.num_nodes))
        for dpu, (src, dst) in enumerate(part.per_dpu):
            triplet = list(p.table.triplet_of(dpu))
            for a, b in zip(cu_all[src].tolist(), cu_all[dst].tolist()):
                t = triplet.copy()
                t.remove(a)
                assert b in t  # pair {a, b} is a sub-multiset of the triplet

    def test_load_classes_follow_n_3n_6n(self):
        """Sec. 3.1: expected loads are N (mono), 3N (two-color), 6N (three-color)."""
        rngs = RngFactory(5)
        g = erdos_renyi(3000, 60_000, rngs.stream("g")).canonicalize()
        p = make_partitioner(4, seed=2)
        part = p.assign(g)
        kind = p.table.kind
        mean1 = part.counts[kind == 1].mean()
        mean2 = part.counts[kind == 2].mean()
        mean3 = part.counts[kind == 3].mean()
        assert mean2 / mean1 == pytest.approx(3.0, rel=0.2)
        assert mean3 / mean1 == pytest.approx(6.0, rel=0.2)

    def test_expected_max_edges_formula(self, small_graph):
        p = make_partitioner(4)
        assert p.expected_max_edges_per_dpu(small_graph.num_edges) == pytest.approx(
            6 * small_graph.num_edges / 16
        )


class TestCountingInvariant:
    """Summed per-core counts + mono correction == exact triangle count."""

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 8])
    def test_er_graphs(self, c, rngs):
        g = erdos_renyi(60, 300, rngs.stream("g", c)).canonicalize()
        self._check(g, c, seed=c)

    @settings(max_examples=25, deadline=None)
    @given(
        g=graph_strategy(max_nodes=20, max_edges=70),
        c=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_property(self, g, c, seed):
        self._check(g, c, seed)

    @staticmethod
    def _check(g: COOGraph, c: int, seed: int) -> None:
        truth = count_triangles(g)
        p = make_partitioner(c, seed=seed)
        part = p.assign(g)
        counts = np.array(
            [
                count_triangles(COOGraph(src.copy(), dst.copy(), g.num_nodes))
                for src, dst in part.per_dpu
            ],
            dtype=np.float64,
        )
        mono = p.mono_mask()
        total = counts.sum() - (c - 1) * counts[mono].sum()
        assert total == truth

    def test_mono_dpus_count_only_their_color(self, rngs):
        """A single-color core's subgraph is monochromatic by construction."""
        g = erdos_renyi(50, 260, rngs.stream("m")).canonicalize()
        p = make_partitioner(3, seed=9)
        part = p.assign(g)
        for dpu in np.nonzero(p.mono_mask())[0]:
            color = p.table.triplet_of(int(dpu))[0]
            src, dst = part.per_dpu[dpu]
            assert np.all(p.node_colors(src) == color)
            assert np.all(p.node_colors(dst) == color)


class TestDeterminism:
    def test_same_seed_same_assignment(self, small_graph):
        a = make_partitioner(4, seed=1).assign(small_graph)
        b = make_partitioner(4, seed=1).assign(small_graph)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_different_seed_different_coloring(self, small_graph):
        a = make_partitioner(4, seed=1).assign(small_graph)
        b = make_partitioner(4, seed=2).assign(small_graph)
        assert not np.array_equal(a.counts, b.counts)


class TestDegreePartitioner:
    """Degree-aware coloring: still a partition, so still exact."""

    def _hub(self, seed: int = 0) -> COOGraph:
        rng = np.random.default_rng(seed)
        return hub_graph(200, 400, 3, 120, rng).canonicalize()

    def test_counting_invariant_on_hub_graph(self):
        g = self._hub()
        truth = count_triangles(g)
        for c in (2, 3, 4):
            p = make_degree_partitioner(c, seed=c)
            part = p.assign(g)
            counts = np.array(
                [
                    count_triangles(COOGraph(src.copy(), dst.copy(), g.num_nodes))
                    for src, dst in part.per_dpu
                ],
                dtype=np.float64,
            )
            total = counts.sum() - (c - 1) * counts[p.mono_mask()].sum()
            assert total == truth

    def test_node_colors_is_a_partition(self):
        """Same node must get the same color no matter the query context."""
        g = self._hub()
        p = make_degree_partitioner(4)
        p.fit(g)
        nodes = np.arange(g.num_nodes)
        whole = p.node_colors(nodes)
        # query one at a time, reversed, and interleaved with other IDs
        singles = np.array([int(p.node_colors(np.array([v]))[0]) for v in nodes])
        np.testing.assert_array_equal(whole, singles)
        np.testing.assert_array_equal(p.node_colors(nodes[::-1]), whole[::-1])

    def test_unfitted_raises(self):
        p = make_degree_partitioner(3)
        assert not p.fitted
        with pytest.raises(ConfigurationError):
            p.node_colors(np.array([0, 1]))

    def test_assign_autofits(self):
        g = self._hub()
        p = make_degree_partitioner(3)
        part = p.assign(g)
        assert p.fitted
        assert part.total_routed == 3 * g.num_edges

    def test_deterministic_fit(self):
        g = self._hub()
        a = make_degree_partitioner(4, seed=7).assign(g)
        b = make_degree_partitioner(4, seed=7).assign(g)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_hot_nodes_are_highest_degree(self):
        g = self._hub()
        p = make_degree_partitioner(4)
        p.fit(g)
        assert p.num_hot_nodes >= 3  # the three planted hubs qualify
        deg = g.degrees()
        hot = p._hot_nodes
        assert deg[hot].min() > deg.mean()

    def test_reduces_max_triplet_load_vs_hash(self):
        """The whole point: hub graphs route more evenly than under hash."""
        g = self._hub(seed=3)
        for seed in (0, 1, 2):
            hash_counts = make_partitioner(4, seed=seed).assign(g).counts
            deg_counts = make_degree_partitioner(4, seed=seed).assign(g).counts
            assert deg_counts.max() <= hash_counts.max()

    def test_expected_max_uses_fitted_mass(self):
        g = self._hub()
        p = make_degree_partitioner(4)
        uniform = ColoringPartitioner(4, RngFactory(0).stream("c"))
        # unfitted: falls back to the uniform formula
        assert p.expected_max_edges_per_dpu(g.num_edges) == pytest.approx(
            uniform.expected_max_edges_per_dpu(g.num_edges)
        )
        p.fit(g)
        est = p.expected_max_edges_per_dpu(g.num_edges)
        # fitted estimate reflects the actual (non-uniform) color masses: on
        # a skewed graph it rises above the uniform 6m/C^3 formula, which
        # under-estimates the realised max load here
        actual = p.assign(g).counts.max()
        assert est > uniform.expected_max_edges_per_dpu(g.num_edges)
        assert actual > uniform.expected_max_edges_per_dpu(g.num_edges)

    def test_strategy_factory(self):
        rng = RngFactory(0).stream("c")
        assert strategy_partitioner("hash", 3, rng).strategy == "hash"
        assert strategy_partitioner("degree", 3, rng).strategy == "degree"
        with pytest.raises(ConfigurationError):
            strategy_partitioner("auto", 3, rng)  # resolved before this layer
        with pytest.raises(ConfigurationError):
            strategy_partitioner("nope", 3, rng)


def _argsort_reference(p: ColoringPartitioner, src: np.ndarray, dst: np.ndarray):
    """Routing by a stable argsort on int64 core ids, each endpoint hashed:
    the formulation the radix grouping must reproduce exactly."""
    c, m = p.num_colors, src.size
    cu, cv = p.node_colors(src), p.node_colors(dst)
    ids = np.concatenate([p.table.lut[cu, cv, np.int64(x)] for x in range(c)])
    order = np.argsort(ids.astype(np.int64), kind="stable")
    flat_src = np.tile(src.astype(np.int64), c)[order]
    flat_dst = np.tile(dst.astype(np.int64), c)[order]
    counts = np.bincount(ids, minlength=p.num_dpus)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return counts, [
        (flat_src[lo:hi], flat_dst[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


class TestRadixGroupingEqualsArgsort:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=80
        ),
        c=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=5),
        ids=st.sampled_from(["dense", "sparse", "wide"]),
    )
    def test_same_routing_and_per_core_order(self, edges, c, seed, ids):
        src = np.array([a for a, _ in edges], dtype=np.int64)
        dst = np.array([b for _, b in edges], dtype=np.int64)
        partitioners = [make_partitioner(c, seed)]
        if ids == "wide":  # ids past 31 bits: no packed record gather
            src, dst = src + 2**33, dst + 2**33
        else:
            if ids == "sparse":  # more ids than endpoints: hashed per endpoint
                src, dst = src * 1009 + 7, dst * 1009 + 7
            g = COOGraph(src, dst, int(max(src.max(), dst.max())) + 1)
            partitioners.append(make_degree_partitioner(c, seed).fit(g))
        for p in partitioners:
            part = p.assign_arrays(src, dst)
            counts, per_dpu = _argsort_reference(p, src, dst)
            assert np.array_equal(part.counts, counts)
            assert part.counts.dtype == np.int64
            for (s, d), (rs, rd) in zip(part.per_dpu, per_dpu):
                assert s.dtype == rs.dtype and d.dtype == rd.dtype
                assert np.array_equal(s, rs) and np.array_equal(d, rd)

    def test_core_ids_wider_than_a_byte(self):
        """C=32 routes to 5984 cores, so the keys are uint16, not uint8."""
        p = make_partitioner(32)
        assert p.num_dpus == 5984
        g = erdos_renyi(200, 600, RngFactory(1).stream("g")).canonicalize()
        counts, per_dpu = _argsort_reference(p, g.src, g.dst)
        part = p.assign(g)
        assert np.array_equal(part.counts, counts)
        assert all(np.array_equal(s, rs) for (s, _), (rs, _) in zip(part.per_dpu, per_dpu))
