"""Dynamic PIM counter: incremental correctness and time accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.dynamic import DynamicPimCounter
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.triangles import count_triangles


class TestValidation:
    def test_rejects_zero_colors(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(10, num_colors=0)

    def test_mg_params_must_pair(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(10, num_colors=2, misra_gries_k=8)


class TestIncrementalCorrectness:
    @pytest.mark.parametrize("colors", [1, 2, 4])
    def test_final_count_matches_oracle(self, small_graph, colors):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=colors, seed=2)
        for batch in small_graph.split_batches(5):
            dyn.apply_update(batch)
        assert dyn.triangles == count_triangles(small_graph)

    def test_every_round_matches_prefix_count(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=1)
        batches = small_graph.split_batches(4)
        cumulative = None
        for batch in batches:
            cumulative = batch if cumulative is None else cumulative.concat(batch)
            result = dyn.apply_update(batch)
            assert result.triangles_total == count_triangles(cumulative)

    def test_added_triangles_sum_to_total(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=5)
        added = [dyn.apply_update(b).triangles_added for b in small_graph.split_batches(6)]
        assert sum(added) == count_triangles(small_graph)

    def test_with_misra_gries_still_exact(self):
        g = get_dataset("wikipedia", "tiny")
        dyn = DynamicPimCounter(
            g.num_nodes, num_colors=3, seed=2, misra_gries_k=128, misra_gries_t=4
        )
        for batch in g.split_batches(4):
            dyn.apply_update(batch)
        assert dyn.triangles == count_triangles(g)

    def test_single_batch_equals_static(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=0)
        dyn.apply_update(small_graph)
        assert dyn.triangles == count_triangles(small_graph)


class TestChunkedUpdates:
    """``batch_edges`` streams each update in chunks; counts must not move."""

    def test_rejects_zero_batch_edges(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(10, num_colors=2, batch_edges=0)

    @pytest.mark.parametrize("chunk", [1, 13, 10**6])
    def test_counts_match_monolithic(self, small_graph, chunk):
        mono = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=2)
        chunked = DynamicPimCounter(
            small_graph.num_nodes, num_colors=3, seed=2, batch_edges=chunk
        )
        for batch in small_graph.split_batches(4):
            a = mono.apply_update(batch)
            b = chunked.apply_update(batch)
            assert b.triangles_total == a.triangles_total
            assert b.triangles_added == a.triangles_added
        assert chunked.triangles == count_triangles(small_graph)

    def test_with_misra_gries_matches_monolithic(self):
        g = get_dataset("wikipedia", "tiny")
        mono = DynamicPimCounter(
            g.num_nodes, num_colors=3, seed=2, misra_gries_k=128, misra_gries_t=4
        )
        chunked = DynamicPimCounter(
            g.num_nodes,
            num_colors=3,
            seed=2,
            misra_gries_k=128,
            misra_gries_t=4,
            batch_edges=17,
        )
        for batch in g.split_batches(3):
            assert (
                chunked.apply_update(batch).triangles_total
                == mono.apply_update(batch).triangles_total
            )
        assert chunked.triangles == count_triangles(g)

    @pytest.mark.parametrize("mg", [False, True])
    def test_chunked_rounds_pinned(self, mg):
        """Chunked sessions' simulated round times, pinned bit-exactly
        (values recorded from the per-core merge loop this counter
        replaced); the default-path rounds are pinned by the ingest
        characterization golden file."""
        g = get_dataset("wikipedia", "tiny")
        opts = dict(misra_gries_k=64, misra_gries_t=8) if mg else {}
        dyn = DynamicPimCounter(g.num_nodes, num_colors=3, seed=2, batch_edges=97, **opts)
        batches = g.split_batches(4)
        rows = []
        for i, batch in enumerate(batches):
            r = dyn.apply_update(batch)
            rows.append((r.triangles_total, r.round_seconds))
            if i:
                r = dyn.apply_deletion(batches[i - 1].slice(0, 150))
                rows.append((r.triangles_total, r.round_seconds))
        expected = {
            False: [
                (10, 0.001539531855651522), (98, 0.0021149469605992524),
                (80, 0.00016639313931105307), (339, 0.0026726952301039386),
                (306, 0.00019070230322301013), (1186, 0.003280073470852147),
                (1091, 0.00021434936925542047),
            ],
            True: [
                (10, 0.0016175541753433494), (98, 0.00225732065426742),
                (80, 0.00018640272014937634), (339, 0.002851160352343538),
                (306, 0.0002107118840613334), (1186, 0.0034087678378597157),
                (1091, 0.00023435895009374375),
            ],
        }
        assert rows == expected[mg]

    def test_deletion_after_chunked_inserts(self, small_graph):
        dyn = DynamicPimCounter(
            small_graph.num_nodes, num_colors=3, seed=1, batch_edges=29
        )
        dyn.apply_update(small_graph)
        drop = small_graph.split_batches(8)[0]
        dyn.apply_deletion(drop)
        remaining = [
            (int(u), int(v))
            for u, v in zip(small_graph.src, small_graph.dst)
            if (int(u), int(v)) not in set(zip(drop.src.tolist(), drop.dst.tolist()))
        ]
        from repro.graph.coo import COOGraph

        expect = count_triangles(
            COOGraph.from_edges(remaining, num_nodes=small_graph.num_nodes)
        )
        assert dyn.triangles == expect


class TestTimeAccounting:
    def test_setup_excluded_from_rounds(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        assert dyn.setup_seconds > 0
        assert dyn.cumulative_seconds == 0.0
        result = dyn.apply_update(small_graph.split_batches(2)[0])
        assert result.cumulative_seconds == pytest.approx(result.round_seconds)

    def test_cumulative_monotone(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        last = 0.0
        for batch in small_graph.split_batches(5):
            result = dyn.apply_update(batch)
            assert result.round_seconds > 0
            assert result.cumulative_seconds > last
            last = result.cumulative_seconds

    def test_round_metadata(self, small_graph):
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        batches = small_graph.split_batches(3)
        r1 = dyn.apply_update(batches[0])
        r2 = dyn.apply_update(batches[1])
        assert (r1.round_index, r2.round_index) == (1, 2)
        assert r2.cumulative_edges == batches[0].num_edges + batches[1].num_edges
        assert "round=2" in repr(r2)

    def test_mg_remap_cheapens_hub_rounds(self):
        """On the hub graph, Misra-Gries lowers total dynamic time."""
        g = get_dataset("wikipedia", "tiny")
        plain = DynamicPimCounter(g.num_nodes, num_colors=3, seed=2)
        remap = DynamicPimCounter(
            g.num_nodes, num_colors=3, seed=2, misra_gries_k=256, misra_gries_t=8
        )
        for batch in g.split_batches(5):
            plain.apply_update(batch)
            remap.apply_update(batch)
        assert remap.triangles == plain.triangles
        assert remap.cumulative_seconds < plain.cumulative_seconds


class TestEmptyBatches:
    def test_empty_batch_is_noop_for_count(self, small_graph):
        from repro.graph.coo import COOGraph

        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=2, seed=1)
        dyn.apply_update(small_graph)
        before = dyn.triangles
        result = dyn.apply_update(COOGraph.from_edges([], num_nodes=small_graph.num_nodes))
        assert result.triangles_added == 0
        assert dyn.triangles == before


def _graph(edges, num_nodes=6):
    from repro.graph.coo import COOGraph

    return COOGraph.from_edges(edges, num_nodes=num_nodes)


class TestInsertCanonicalization:
    """An insert adds each undirected edge at most once: self-loops, repeats
    within the batch (either orientation) and resident edges are dropped
    before routing, so no client batch can over-count."""

    def test_resent_batch_adds_nothing(self):
        dyn = DynamicPimCounter(6, num_colors=2, seed=0)
        triangle = _graph([(0, 1), (1, 2), (0, 2)])
        dyn.apply_update(triangle)
        again = dyn.apply_update(triangle)
        assert (dyn.triangles, dyn.cumulative_edges) == (1, 3)
        assert (again.new_edges, again.triangles_added) == (0, 0)

    def test_repeats_within_a_batch_count_once(self):
        dyn = DynamicPimCounter(6, num_colors=2, seed=0)
        result = dyn.apply_update(_graph([(0, 1), (1, 0), (1, 2), (0, 2)]))
        assert (result.triangles_total, result.new_edges, result.cumulative_edges) == (1, 3, 3)

    def test_self_loops_are_not_resident(self):
        dyn = DynamicPimCounter(6, num_colors=2, seed=0)
        result = dyn.apply_update(_graph([(2, 2), (0, 1)]))
        assert (result.new_edges, dyn.cumulative_edges) == (1, 1)
        assert dyn.resident_bytes == dyn.routed_bytes_for(1)
        assert dyn.apply_deletion(_graph([(2, 2)])).removed_edges == 0

    @pytest.mark.parametrize("mg", [False, True])
    @pytest.mark.parametrize("batch_edges", [None, 3])
    def test_noisy_batch_runs_as_its_fresh_edges(self, small_graph, mg, batch_edges):
        """Outputs, charges and clocks of a batch with repeats, reversed
        copies, self-loops and resident edges equal those of its fresh
        edges sent alone, in order."""
        from repro.graph.coo import COOGraph

        opts = dict(num_colors=3, seed=3, batch_edges=batch_edges)
        if mg:
            opts.update(misra_gries_k=8, misra_gries_t=2)
        noisy, clean = (DynamicPimCounter(small_graph.num_nodes, **opts) for _ in range(2))
        head, fresh = small_graph.slice(0, 200), small_graph.slice(200, 260)
        noisy.apply_update(head)
        clean.apply_update(head)
        src = np.concatenate([fresh.src, head.dst[:20], fresh.dst[:15], [7, 9]])
        dst = np.concatenate([fresh.dst, head.src[:20], fresh.src[:15], [7, 9]])
        order = np.argsort(np.r_[np.arange(fresh.num_edges), np.arange(37) + 0.5], kind="stable")
        batch = COOGraph(src[order], dst[order], small_graph.num_nodes)
        got = noisy.apply_update(batch).to_dict()
        assert got == clean.apply_update(fresh).to_dict()
        assert got["new_edges"] == fresh.num_edges
        assert np.array_equal(noisy._raw_counts, clean._raw_counts)
        assert noisy.triangles == count_triangles(small_graph.slice(0, 260))

    def test_rejects_out_of_range_ids(self):
        from repro.common.errors import GraphFormatError

        dyn = DynamicPimCounter(4, num_colors=2, seed=0)
        with pytest.raises(GraphFormatError):
            dyn.apply_update(_graph([(0, 5)]))


class TestRecordKeys:
    def test_ceil_log2_matches_float_formula(self):
        """The charge step counts equal the per-core ``ceil(log2(x))`` the
        charges were defined with, at and around every power of two."""
        from repro.core.dynamic import _ceil_log2

        x = np.unique(np.concatenate([
            np.arange(1, 5000),
            *[(1 << k) + np.array([-1, 0, 1]) for k in range(2, 40)],
        ]))
        expect = [int(np.ceil(np.log2(int(i)))) for i in x]
        assert _ceil_log2(x).tolist() == expect

    def test_rejects_ids_too_wide_for_int64_keys(self):
        with pytest.raises(ConfigurationError):
            DynamicPimCounter(1 << 31, num_colors=4)
