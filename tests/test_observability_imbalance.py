"""Per-DPU imbalance ledger: skew stats, straggler attribution, invisibility.

The load-bearing assertions reproduce the paper's straggler story on
synthetic graphs with a known hot vertex: the DPU holding the hub tops the
straggler table, and enabling the Misra-Gries remap strictly reduces the
max/mean skew of the counting phase.  A separate test pins the observation-
only contract: disabling ledger collection changes no simulated number.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import PimTriangleCounter
from repro.graph.coo import COOGraph
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi
from repro.observability.imbalance import _heaviest_node
from repro.observability import (
    ImbalanceLedger,
    SKEW_METRICS,
    render_imbalance_report,
    imbalance_heatmap_svg,
    skew_stats,
)
from repro.telemetry import Telemetry
from repro.testing.strategies import make_case


def hub_graph(
    hub_degree: int = 120, noise_edges: int = 300, seed: int = 0
) -> tuple[COOGraph, int]:
    """A planted heavy hitter: one hub wired to everything plus ER noise.

    Returns (graph, hub_id).  The hub's forward adjacency dominates every
    core it lands on — exactly the shape the Misra-Gries remap targets.
    """
    rng = np.random.default_rng(seed)
    n = hub_degree + 1
    hub = 0
    src = [np.zeros(hub_degree, dtype=np.int64)]
    dst = [np.arange(1, n, dtype=np.int64)]
    noise = erdos_renyi(n, noise_edges, rng)
    src.append(noise.src)
    dst.append(noise.dst)
    g = COOGraph(
        src=np.concatenate(src),
        dst=np.concatenate(dst),
        num_nodes=n,
        name="hub",
    ).canonicalize()
    return g, hub


class TestSkewStats:
    def test_uniform_vector_is_balanced(self):
        s = skew_stats(np.full(16, 7.0))
        assert s.max_over_mean == pytest.approx(1.0)
        assert s.p99_over_p50 == pytest.approx(1.0)
        assert s.cv == pytest.approx(0.0)

    def test_single_hot_entry_shows_up(self):
        values = np.ones(20)
        values[3] = 21.0
        s = skew_stats(values)
        assert s.max == 21.0
        assert s.max_over_mean == pytest.approx(21.0 / 2.0)
        assert s.cv > 1.0

    def test_empty_and_zero_vectors_define_ratios_as_one(self):
        for vec in (np.empty(0), np.zeros(8)):
            s = skew_stats(vec)
            assert s.max_over_mean == 1.0
            assert s.p99_over_p50 == 1.0
            assert s.cv == 0.0


class TestLedgerCollection:
    @pytest.fixture(scope="class")
    def run(self):
        g, hub = hub_graph()
        result = PimTriangleCounter(num_colors=4, seed=1).count(g)
        return g, hub, result

    def test_ledger_attached_and_shaped(self, run):
        _, _, result = run
        ledger = result.imbalance
        assert isinstance(ledger, ImbalanceLedger)
        assert ledger.num_dpus == result.num_dpus
        assert ledger.triplets.shape == (ledger.num_dpus, 3)
        for metric in SKEW_METRICS:
            assert ledger.column(metric).shape == (ledger.num_dpus,)

    def test_routed_edges_cover_every_stored_edge(self, run):
        _, _, result = run
        ledger = result.imbalance
        assert np.all(ledger.edges_stored <= ledger.edges_routed)
        assert int(ledger.edges_routed.sum()) > 0

    def test_hub_dpu_tops_the_straggler_table(self, run):
        """The paper's diagnosis: the core holding the hot vertex straggles."""
        _, hub, result = run
        ledger = result.imbalance
        top = ledger.stragglers(metric="count_seconds", k=1)[0]
        assert top["heavy_node"] == hub
        assert top["heavy_node_multiplicity"] > 1
        assert top["share"] > 1.0 / ledger.num_dpus

    def test_count_skew_is_visible_on_hub_graph(self, run):
        _, _, result = run
        s = result.imbalance.skew("count_seconds")
        assert s.max_over_mean > 1.1
        assert s.cv > 0.1

    def test_unknown_metric_raises(self, run):
        _, _, result = run
        with pytest.raises(KeyError):
            result.imbalance.column("nope")

    def test_powerlaw_family_ledger_is_consistent(self):
        case = make_case("powerlaw", np.random.default_rng(5))
        result = PimTriangleCounter(num_colors=3, seed=2).count(case.graph)
        ledger = result.imbalance
        s = ledger.skew("edges_routed")
        assert s.max_over_mean >= 1.0
        assert np.isfinite(s.cv)
        doc = json.loads(json.dumps(ledger.to_dict()))
        assert doc["num_dpus"] == ledger.num_dpus
        assert len(doc["per_dpu"]["edges_routed"]) == ledger.num_dpus


class TestMisraGriesReducesSkew:
    def test_remap_strictly_reduces_max_over_mean(self):
        g, hub = hub_graph()
        base = PimTriangleCounter(num_colors=4, seed=1).count(g)
        remapped = PimTriangleCounter(
            num_colors=4, seed=1, misra_gries_k=64, misra_gries_t=8
        ).count(g)
        assert remapped.count == base.count
        base_skew = base.imbalance.skew("count_seconds").max_over_mean
        mg_skew = remapped.imbalance.skew("count_seconds").max_over_mean
        assert mg_skew < base_skew

    def test_remapped_flag_set_on_hub_straggler(self):
        g, hub = hub_graph()
        remapped = PimTriangleCounter(
            num_colors=4, seed=1, misra_gries_k=64, misra_gries_t=8
        ).count(g)
        rows = remapped.imbalance.stragglers(metric="edges_routed", k=4)
        assert any(r["heavy_node_remapped"] for r in rows)


class TestObservationOnly:
    def test_collection_is_invisible_to_simulated_state(self):
        """Disabling the harvest changes no count, clock, trace, or metric."""
        g, _ = hub_graph(hub_degree=60, noise_edges=150)

        def run(disabled: bool):
            telemetry = Telemetry(detail=True)
            counter = PimTriangleCounter(num_colors=4, seed=3, telemetry=telemetry)
            if disabled:
                with mock.patch(
                    "repro.observability.imbalance.collect_ledger",
                    return_value=None,
                ):
                    result = counter.count(g)
            else:
                result = counter.count(g)
            return result, telemetry

        on, tel_on = run(disabled=False)
        off, tel_off = run(disabled=True)
        assert on.imbalance is not None and off.imbalance is None
        assert on.count == off.count
        assert np.array_equal(on.per_dpu_counts, off.per_dpu_counts)
        assert on.clock.phases == off.clock.phases
        assert [
            (e.kind, e.seconds, e.payload_bytes) for e in on.trace.events
        ] == [(e.kind, e.seconds, e.payload_bytes) for e in off.trace.events]
        assert tel_on.metrics.snapshot() == tel_off.metrics.snapshot()

    def test_batched_ingest_also_harvests(self):
        g, _ = hub_graph(hub_degree=60, noise_edges=150)
        mono = PimTriangleCounter(num_colors=4, seed=3).count(g)
        batched = PimTriangleCounter(num_colors=4, seed=3, batch_edges=100).count(g)
        assert batched.imbalance is not None
        assert batched.count == mono.count
        assert np.array_equal(
            batched.imbalance.edges_routed, mono.imbalance.edges_routed
        )

    def test_one_chunk_run_charges_like_default_under_overflow(self):
        """A chunked run whose only chunk is the whole stream charges the
        cores exactly like the default path, reservoir overflow included:
        MRAM writes cover the edges added to the resident sample."""
        g = get_dataset("humanjung", "tiny")
        default, chunked = (
            PimTriangleCounter(
                num_colors=4, seed=3, reservoir_capacity=300, batch_edges=b
            ).count(g)
            for b in (None, g.num_edges)
        )
        assert (default.reservoir_scales < 1.0).all()  # every core overflowed
        for column in (*SKEW_METRICS, "edges_stored", "xfer_bytes", "heavy_nodes"):
            assert np.array_equal(
                getattr(chunked.imbalance, column), getattr(default.imbalance, column)
            ), column
        assert chunked.estimate == default.estimate
        assert np.array_equal(chunked.per_dpu_counts, default.per_dpu_counts)


class TestRendering:
    @pytest.fixture(scope="class")
    def ledger(self):
        g, _ = hub_graph()
        return PimTriangleCounter(num_colors=4, seed=1).count(g).imbalance

    def test_text_report_contains_skew_and_stragglers(self, ledger):
        text = render_imbalance_report(ledger, top_k=3)
        assert "max/mean" in text
        assert "stragglers" in text
        for metric in SKEW_METRICS:
            assert metric in text
        # one line per straggler row
        assert len([l for l in text.splitlines() if l.strip().startswith(tuple("0123456789"))]) >= 3

    def test_heatmap_svg_renders_rows(self, ledger):
        svg = imbalance_heatmap_svg(ledger)
        assert svg.startswith("<svg")
        assert "count_seconds" in svg
        assert "DPU id" in svg


@settings(max_examples=50, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40))
def test_heaviest_node_matches_unique_reference(edges):
    """Most frequent endpoint, ties to the smallest id, as ``np.unique``
    counts it."""
    src = np.array([a for a, _ in edges], dtype=np.int32)
    dst = np.array([b for _, b in edges], dtype=np.int32)
    if not edges:
        assert _heaviest_node(src, dst) == (-1, 0)
        return
    nodes, counts = np.unique(np.concatenate([src, dst]), return_counts=True)
    best = int(np.argmax(counts))
    assert _heaviest_node(src, dst) == (int(nodes[best]), int(counts[best]))
