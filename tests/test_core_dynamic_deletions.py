"""Fully-dynamic updates: edge deletions (TRIEST-FD-style extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import dynamic
from repro.core.dynamic import DynamicPimCounter
from repro.core.kernel_tc_fast import _count_forward_sparse
from repro.core.orient import orient_and_sort
from repro.graph.coo import COOGraph
from repro.graph.triangles import count_triangles


@pytest.fixture
def counter_with_graph(small_graph):
    dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=4)
    dyn.apply_update(small_graph)
    return dyn, small_graph


class TestDeletions:
    def test_delete_subset_matches_oracle(self, counter_with_graph, rng):
        dyn, graph = counter_with_graph
        drop = rng.choice(graph.num_edges, size=graph.num_edges // 3, replace=False)
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[drop] = True
        deleted = COOGraph(graph.src[mask], graph.dst[mask], graph.num_nodes)
        remaining = COOGraph(graph.src[~mask], graph.dst[~mask], graph.num_nodes)
        result = dyn.apply_deletion(deleted)
        assert result.op == "delete"
        assert dyn.triangles == count_triangles(remaining)
        assert result.triangles_added <= 0

    def test_delete_everything(self, counter_with_graph):
        dyn, graph = counter_with_graph
        result = dyn.apply_deletion(graph)
        assert dyn.triangles == 0
        assert result.cumulative_edges == 0

    def test_delete_missing_edges_is_noop(self, counter_with_graph):
        dyn, graph = counter_with_graph
        before = dyn.triangles
        # Edges between nodes that are never adjacent in an ER sample of this
        # density are unlikely; build guaranteed-absent self-ish pairs.
        absent = COOGraph.from_edges([(0, 1), (1, 2)], num_nodes=graph.num_nodes)
        keys = set(graph.edge_keys().tolist())
        absent_mask = [
            (min(u, v) * graph.num_nodes + max(u, v)) not in keys
            for u, v in absent.iter_edges()
        ]
        if all(absent_mask):
            result = dyn.apply_deletion(absent)
            assert dyn.triangles == before
            assert result.triangles_added == 0

    def test_reinsertion_after_deletion(self, counter_with_graph):
        dyn, graph = counter_with_graph
        truth = count_triangles(graph)
        half = graph.slice(0, graph.num_edges // 2)
        dyn.apply_deletion(half)
        dyn.apply_update(half)
        assert dyn.triangles == truth

    def test_interleaved_sequence_matches_oracle(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=9)
        batches = small_graph.split_batches(4)
        dyn.apply_update(batches[0])
        dyn.apply_update(batches[1])
        dyn.apply_deletion(batches[0])
        dyn.apply_update(batches[2])
        current = batches[1].concat(batches[2])
        assert dyn.triangles == count_triangles(current)
        dyn.apply_update(batches[3])
        dyn.apply_update(batches[0])
        assert dyn.triangles == count_triangles(small_graph)

    def test_deletion_charges_time(self, counter_with_graph):
        dyn, graph = counter_with_graph
        before = dyn.cumulative_seconds
        result = dyn.apply_deletion(graph.slice(0, 20))
        assert result.round_seconds > 0
        assert dyn.cumulative_seconds > before

    def test_mono_correction_survives_deletions(self, small_graph):
        """Deleting must keep the monochromatic bookkeeping consistent for
        every color count, including C=1."""
        for c in (1, 3, 5):
            dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=c, seed=c)
            dyn.apply_update(small_graph)
            third = small_graph.slice(0, small_graph.num_edges // 3)
            dyn.apply_deletion(third)
            remaining = small_graph.slice(small_graph.num_edges // 3, small_graph.num_edges)
            assert dyn.triangles == count_triangles(remaining)


class TestDeletionAccounting:
    """``cumulative_edges`` counts *logical* edges, attributed on each edge's
    canonical home core (``lut[cu, cv, 0]``) — never derived by dividing the
    replica-drop total by the replication factor."""

    @pytest.mark.parametrize("colors", [1, 2, 3, 4, 5])
    def test_insert_then_delete_all_restores_zero(self, small_graph, colors):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=colors, seed=colors)
        dyn.apply_update(small_graph)
        assert dyn.cumulative_edges == small_graph.num_edges
        result = dyn.apply_deletion(small_graph)
        assert result.removed_edges == small_graph.num_edges
        assert result.cumulative_edges == 0
        assert dyn.cumulative_edges == 0
        assert dyn.triangles == 0

    @pytest.mark.parametrize("colors", [2, 4])
    def test_multi_batch_delete_all(self, small_graph, colors):
        """Deleting in awkward chunk sizes (not multiples of anything) still
        lands exactly on zero, with per-batch removed_edges summing to m."""
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=colors, seed=7)
        dyn.apply_update(small_graph)
        removed = 0
        for start in range(0, small_graph.num_edges, 37):
            stop = min(start + 37, small_graph.num_edges)
            result = dyn.apply_deletion(small_graph.slice(start, stop))
            assert result.removed_edges == stop - start
            removed += result.removed_edges
            assert dyn.cumulative_edges == small_graph.num_edges - removed
        assert dyn.cumulative_edges == 0
        assert dyn.triangles == 0

    def test_absent_edges_do_not_decrement(self, counter_with_graph):
        """Tombstones that match nothing remove zero logical edges."""
        dyn, graph = counter_with_graph
        before = dyn.cumulative_edges
        keys = set(graph.edge_keys().tolist())
        absent = [
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, min(u + 3, graph.num_nodes))
            if (u * graph.num_nodes + v) not in keys
        ][:5]
        assert absent, "ER sample unexpectedly complete"
        result = dyn.apply_deletion(
            COOGraph.from_edges(absent, num_nodes=graph.num_nodes)
        )
        assert result.removed_edges == 0
        assert dyn.cumulative_edges == before

    def test_mixed_present_and_absent_batch(self, counter_with_graph):
        dyn, graph = counter_with_graph
        present = graph.slice(0, 10)
        keys = set(graph.edge_keys().tolist())
        absent = [
            (u, u + 1)
            for u in range(graph.num_nodes - 1)
            if (u * graph.num_nodes + u + 1) not in keys
        ][:10]
        batch = COOGraph(
            np.concatenate([present.src, np.array([u for u, _ in absent])]),
            np.concatenate([present.dst, np.array([v for _, v in absent])]),
            graph.num_nodes,
        )
        result = dyn.apply_deletion(batch)
        assert result.removed_edges == 10
        assert dyn.cumulative_edges == graph.num_edges - 10


def _absent_edges(graph: COOGraph, limit: int) -> list[tuple[int, int]]:
    keys = set(graph.edge_keys().tolist())
    return [
        (u, u + 1)
        for u in range(graph.num_nodes - 1)
        if (u * graph.num_nodes + u + 1) not in keys
    ][:limit]


def _recount(dyn: DynamicPimCounter) -> list[int]:
    """Every core's count, recomputed from its resident sample."""
    return [
        _count_forward_sparse(*orient_and_sort(src, dst)[:2], dyn.num_nodes)
        for src, dst in zip(dyn._src, dyn._dst)
    ]


@pytest.fixture
def arith_calls(monkeypatch):
    """Cores' samples handed to the dynamic path's count arithmetic."""
    calls = []

    def spy(u, v, num_nodes, *args, **kwargs):
        calls.append(int(u.size))
        return _count_forward_sparse(u, v, num_nodes, *args, **kwargs)

    monkeypatch.setattr(dynamic, "_count_forward_sparse", spy)
    return calls


class TestUnchangedCoresSkipRecount:
    """A core whose resident sample did not change keeps its count: no
    arithmetic runs for it, and charges and clocks are as before."""

    def test_absent_deletion_is_identical_and_recount_free(self, small_graph, arith_calls):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=4)
        twin = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=4)
        dyn.apply_update(small_graph)
        twin.apply_update(small_graph)
        arith_calls.clear()
        raw_before = dyn._raw_counts.copy()
        absent = COOGraph.from_edges(_absent_edges(small_graph, 10), num_nodes=small_graph.num_nodes)
        assert absent.num_edges > 0
        result = dyn.apply_deletion(absent)
        assert arith_calls == []
        assert result.to_dict() == twin.apply_deletion(absent).to_dict()
        assert result.triangles_added == 0 and result.removed_edges == 0
        assert result.round_seconds > 0  # tombstone search is still charged
        assert np.array_equal(dyn._raw_counts, raw_before)
        assert dyn._raw_counts.tolist() == _recount(dyn)

    def test_mixed_deletion_recounts_only_shrunk_cores(self, small_graph, arith_calls):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=4)
        dyn.apply_update(small_graph)
        arith_calls.clear()
        sizes_before = [src.size for src in dyn._src]
        absent = _absent_edges(small_graph, 10)
        batch = COOGraph(
            np.concatenate([small_graph.src[:2], np.array([u for u, _ in absent])]),
            np.concatenate([small_graph.dst[:2], np.array([v for _, v in absent])]),
            small_graph.num_nodes,
        )
        dyn.apply_deletion(batch)
        shrunk = [d for d, src in enumerate(dyn._src) if src.size < sizes_before[d]]
        assert 0 < len(arith_calls) == len(shrunk) < dyn.partitioner.num_dpus
        assert dyn._raw_counts.tolist() == _recount(dyn)
        remaining = COOGraph(small_graph.src[2:], small_graph.dst[2:], small_graph.num_nodes)
        assert dyn.triangles == count_triangles(remaining)

    @pytest.mark.parametrize("batch_edges", [None, 1])
    def test_insert_recounts_only_routed_cores(self, small_graph, arith_calls, batch_edges):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=4, batch_edges=batch_edges)
        head, tail = small_graph.slice(0, 300), small_graph.slice(300, 302)
        dyn.apply_update(head)
        arith_calls.clear()
        routed = int((dyn.partitioner.assign(tail).counts > 0).sum())
        dyn.apply_update(tail)
        assert 0 < len(arith_calls) == routed < dyn.partitioner.num_dpus
        assert dyn._raw_counts.tolist() == _recount(dyn)
        assert dyn.triangles == count_triangles(small_graph.slice(0, 302))


class TestUpdateResultSchema:
    def test_insert_result_fields(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=1)
        result = dyn.apply_update(small_graph)
        assert result.op == "insert"
        assert result.new_edges == small_graph.num_edges
        assert result.removed_edges == 0
        assert "edges=" in repr(result)

    def test_delete_result_fields(self, counter_with_graph):
        dyn, graph = counter_with_graph
        result = dyn.apply_deletion(graph.slice(0, 25))
        assert result.op == "delete"
        assert result.new_edges == 0
        assert result.removed_edges == 25
        assert "removed=25" in repr(result)

    def test_to_dict_round_trips_both_ops(self, counter_with_graph):
        import json

        from repro.core.dynamic import DynamicUpdateResult

        dyn, graph = counter_with_graph
        for result in (
            dyn.apply_deletion(graph.slice(0, 15)),
            dyn.apply_update(graph.slice(0, 15)),
        ):
            payload = json.loads(json.dumps(result.to_dict()))
            rebuilt = DynamicUpdateResult(**payload)
            assert rebuilt.to_dict() == result.to_dict()
            assert rebuilt.op == result.op
            assert rebuilt.new_edges == result.new_edges
            assert rebuilt.removed_edges == result.removed_edges


class TestMisraGriesDecay:
    def test_deleted_hub_leaves_the_top(self, small_graph):
        """A hub whose star is deleted must stop dominating the remap slots;
        exact counts stay exact throughout (remap is a bijection)."""
        n = small_graph.num_nodes + 1
        hub = n - 1
        spokes = np.arange(small_graph.num_nodes, dtype=np.int64)
        star = COOGraph(np.full(spokes.size, hub, dtype=np.int64), spokes, n)
        dyn = DynamicPimCounter(n, num_colors=3, seed=3,
                                misra_gries_k=8, misra_gries_t=2)
        base = COOGraph(small_graph.src, small_graph.dst, n)
        dyn.apply_update(base)
        dyn.apply_update(star)
        assert hub in dyn._mg.top(2)
        assert dyn.triangles == count_triangles(base.concat(star))
        dyn.apply_deletion(star)
        assert hub not in dyn._mg.top(2)
        assert dyn._mg.frequency_lower_bound(hub) == 0
        assert dyn.triangles == count_triangles(base)

    def test_decay_matches_insert_then_delete_counts(self, small_graph):
        """With MG enabled, insert-all-then-delete-all still pins zero."""
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=5,
                                misra_gries_k=6, misra_gries_t=2)
        dyn.apply_update(small_graph)
        dyn.apply_deletion(small_graph)
        assert dyn.triangles == 0
        assert dyn.cumulative_edges == 0
        assert dyn._mg.items_seen == 0
