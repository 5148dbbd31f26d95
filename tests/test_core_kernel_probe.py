"""Probe-kernel variant: functional equivalence + cost structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import PimTriangleCounter
from repro.common.errors import ConfigurationError
from repro.core.host import PimTcOptions
from repro.core.kernel_tc_fast import fast_count
from repro.core.kernel_tc_probe import ProbeTriangleCountKernel, probe_count
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.triangles import count_triangles

from conftest import graph_strategy


class TestProbeCount:
    def test_matches_oracle(self, small_graph):
        res = probe_count(small_graph.src, small_graph.dst, small_graph.num_nodes)
        assert res.triangles == count_triangles(small_graph)

    def test_empty(self):
        res = probe_count(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
        assert res.triangles == 0 and res.probes == 0

    @settings(max_examples=25, deadline=None)
    @given(g=graph_strategy(max_nodes=22, max_edges=80))
    def test_property_matches_merge_kernel(self, g):
        probe = probe_count(g.src, g.dst, g.num_nodes)
        merge = fast_count(g.src, g.dst, g.num_nodes)
        assert probe.triangles == merge.triangles

    def test_probe_total_is_forward_degree_sum(self, small_graph):
        res = probe_count(small_graph.src, small_graph.dst, small_graph.num_nodes)
        from repro.core.orient import orient_and_sort
        from repro.core.region_index import build_region_index

        u, v, _ = orient_and_sort(small_graph.src, small_graph.dst)
        idx = build_region_index(u)
        assert res.probes == int(idx.degrees_of(v).sum())

    def test_probe_steps_include_log_factor(self, small_graph):
        res = probe_count(small_graph.src, small_graph.dst, small_graph.num_nodes)
        assert res.probe_steps >= res.probes  # log2(m) >= 1


class TestKernelOnDpu:
    def make_dpu(self):
        from repro.pimsim.config import CostModel, DpuConfig
        from repro.pimsim.dpu import Dpu

        return Dpu(dpu_id=0, config=DpuConfig(), cost=CostModel())

    def test_stores_count(self, small_graph):
        dpu = self.make_dpu()
        dpu.mram.store("sample_src", small_graph.src.astype(np.int32), count_write=False)
        dpu.mram.store("sample_dst", small_graph.dst.astype(np.int32), count_write=False)
        ProbeTriangleCountKernel(num_nodes=small_graph.num_nodes).run(dpu)
        assert int(dpu.mram.load("triangle_count")[0]) == count_triangles(small_graph)

    def test_missing_sample_raises(self):
        from repro.common.errors import KernelLaunchError

        with pytest.raises(KernelLaunchError):
            ProbeTriangleCountKernel(num_nodes=3).run(self.make_dpu())

    def test_probe_costs_more_dma_requests_than_merge(self, rngs):
        """Random probing's request count dwarfs the merge's streaming DMA."""
        from repro.core.kernel_tc_fast import TriangleCountKernel

        g = erdos_renyi(200, 2500, rngs.stream("pk")).canonicalize()
        merge_dpu = self.make_dpu()
        probe_dpu = self.make_dpu()
        for dpu in (merge_dpu, probe_dpu):
            dpu.mram.store("sample_src", g.src.astype(np.int32), count_write=False)
            dpu.mram.store("sample_dst", g.dst.astype(np.int32), count_write=False)
        TriangleCountKernel(num_nodes=g.num_nodes).run(merge_dpu)
        ProbeTriangleCountKernel(num_nodes=g.num_nodes).run(probe_dpu)
        assert probe_dpu.run_stats().dma_requests > 3 * merge_dpu.run_stats().dma_requests


class TestPipelineVariant:
    def test_option_validated(self, monkeypatch):
        # "fastvec" is a retired variant: rejected, never mapped to "merge".
        for variant in ("quantum", "fastvec"):
            with pytest.raises(ConfigurationError):
                PimTcOptions(kernel_variant=variant)
            monkeypatch.setenv("REPRO_KERNEL", variant)
            with pytest.raises(ConfigurationError):
                PimTriangleCounter()

    def test_probe_pipeline_exact(self, small_graph):
        counter = PimTriangleCounter(num_colors=3, seed=2).with_options(
            kernel_variant="probe"
        )
        assert counter.count(small_graph).count == count_triangles(small_graph)

    def test_merge_faster_on_pim(self):
        """The ablation's headline: streaming merge beats random probes."""
        g = get_dataset("v1r", "tiny")
        merge = PimTriangleCounter(num_colors=3, seed=1).count(g)
        probe = (
            PimTriangleCounter(num_colors=3, seed=1)
            .with_options(kernel_variant="probe")
            .count(g)
        )
        assert merge.count == probe.count
        assert merge.triangle_count_seconds < probe.triangle_count_seconds
