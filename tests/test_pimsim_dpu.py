"""DPU timing model: water-filled pipeline + serial DMA engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import KernelLaunchError
from repro.pimsim.config import CostModel, DpuConfig
from repro.pimsim.dpu import Dpu


def make_dpu(**cfg) -> Dpu:
    return Dpu(dpu_id=0, config=DpuConfig(**cfg), cost=CostModel())


class TestCharging:
    def test_zero_charges_zero_time(self):
        assert make_dpu().compute_seconds() == 0.0

    def test_invalid_tasklet_rejected(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_instructions(16, 100)

    def test_negative_dma_rejected(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_mram_read(0, -5)

    def test_vector_charge_shape_checked(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_instructions_all(np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(
        nbytes=st.lists(st.integers(0, 1 << 24), min_size=16, max_size=16),
        requests=st.lists(st.integers(0, 5000), min_size=16, max_size=16),
        write=st.booleans(),
    )
    def test_vector_dma_equals_per_tasklet_calls(self, nbytes, requests, write):
        loop, vec = make_dpu(), make_dpu()
        for d in (loop, vec):
            d.charge_mram_read(3, 1000, requests=2)  # prior charges accumulate
        one = loop.charge_mram_write if write else loop.charge_mram_read
        for tk in range(16):
            one(tk, nbytes[tk], requests=requests[tk])
        (vec.charge_mram_write_all if write else vec.charge_mram_read_all)(
            np.array(nbytes), requests=np.array(requests)
        )
        # The per-tasklet formula in Python floats, one charge at a time.
        cost, clock = CostModel(), DpuConfig().clock_hz
        bw = cost.mram_write_bandwidth if write else cost.mram_read_bandwidth
        expect = [0.0] * 16
        expect[3] += 2 * cost.mram_dma_latency_cycles / clock + 1000 / cost.mram_read_bandwidth
        for tk in range(16):
            expect[tk] += requests[tk] * cost.mram_dma_latency_cycles / clock + nbytes[tk] / bw
        assert vec.charge_vectors()[1].tolist() == expect
        for a, b in zip(loop.charge_vectors(), vec.charge_vectors()):
            assert np.array_equal(a, b)
        assert loop.run_stats() == vec.run_stats()
        assert loop.lifetime_dma_bytes == vec.lifetime_dma_bytes
        assert loop.lifetime_dma_requests == vec.lifetime_dma_requests

    def test_vector_dma_scalar_applies_to_every_tasklet(self):
        loop, vec = make_dpu(), make_dpu()
        for tk in range(16):
            loop.charge_mram_write(tk, 640, requests=1)
        vec.charge_mram_write_all(640, requests=1)
        assert np.array_equal(loop.charge_vectors()[1], vec.charge_vectors()[1])

    def test_vector_dma_checked(self):
        dpu = make_dpu()
        with pytest.raises(KernelLaunchError):
            dpu.charge_mram_read_all(np.zeros(3, dtype=np.int64))
        with pytest.raises(KernelLaunchError):
            dpu.charge_mram_read_all(np.full(16, -1))

    def test_reset(self):
        dpu = make_dpu()
        dpu.charge_instructions(0, 1000)
        dpu.reset_charges()
        assert dpu.compute_seconds() == 0.0

    def test_run_stats(self):
        dpu = make_dpu()
        dpu.charge_instructions(0, 500)
        dpu.charge_mram_read(1, 4096, requests=2)
        stats = dpu.run_stats()
        assert stats.instructions == 500
        assert stats.dma_requests == 2
        assert stats.dma_bytes == 4096
        assert stats.compute_seconds > 0


class TestPipelineModel:
    def test_single_tasklet_rate(self):
        """One tasklet issues once per pipeline_saturation cycles."""
        dpu = make_dpu(clock_hz=100.0, pipeline_saturation=11)
        dpu.charge_instructions(0, 100)
        assert dpu.compute_seconds() == pytest.approx(100 * 11 / 100.0)

    def test_saturated_pipeline_full_throughput(self):
        """16 equal tasklets retire 1 instr/cycle aggregate."""
        dpu = make_dpu(clock_hz=100.0, num_tasklets=16, pipeline_saturation=11)
        dpu.charge_instructions_all(np.full(16, 100.0))
        assert dpu.compute_seconds() == pytest.approx(1600 / 100.0)

    def test_balanced_charge_equals_manual_split(self):
        a = make_dpu()
        a.charge_balanced(1600)
        b = make_dpu()
        b.charge_instructions_all(np.full(16, 100.0))
        assert a.compute_seconds() == pytest.approx(b.compute_seconds())

    def test_imbalance_costs_more(self):
        balanced = make_dpu()
        balanced.charge_instructions_all(np.full(16, 100.0))
        skewed = make_dpu()
        charges = np.zeros(16)
        charges[0] = 1600
        skewed.charge_instructions_all(charges)
        assert skewed.compute_seconds() > balanced.compute_seconds()

    @settings(max_examples=40, deadline=None)
    @given(
        charges=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=16, max_size=16
        )
    )
    def test_time_bounds(self, charges):
        """Water-filled time is between total/clock and slowest*sat/clock bounds."""
        dpu = make_dpu(clock_hz=350e6)
        arr = np.array(charges)
        dpu.charge_instructions_all(arr)
        t = dpu.compute_seconds()
        lower = arr.sum() / 350e6
        upper = arr.sum() * 11 / 350e6 + 1e-12
        assert lower - 1e-12 <= t <= upper

    def test_monotone_in_instructions(self):
        a = make_dpu()
        a.charge_instructions(0, 100)
        b = make_dpu()
        b.charge_instructions(0, 200)
        assert b.compute_seconds() > a.compute_seconds()


class TestDmaModel:
    def test_dma_is_serial_across_tasklets(self):
        """The MRAM engine is shared: N tasklets' DMA sums, not overlaps."""
        one = make_dpu()
        one.charge_mram_read(0, 1 << 20)
        spread = make_dpu()
        for tk in range(16):
            spread.charge_mram_read(tk, (1 << 20) // 16)
        assert spread.compute_seconds() == pytest.approx(one.compute_seconds(), rel=0.01)

    def test_dma_request_latency_counts(self):
        few = make_dpu()
        few.charge_mram_read(0, 4096, requests=1)
        many = make_dpu()
        many.charge_mram_read(0, 4096, requests=64)
        assert many.compute_seconds() > few.compute_seconds()

    def test_compute_dma_overlap_takes_max(self):
        """A DPU busy on both resources finishes at the slower one."""
        dpu = make_dpu(clock_hz=350e6)
        dpu.charge_instructions_all(np.full(16, 1000.0))  # tiny pipeline load
        dpu.charge_mram_read(0, 10 << 20)  # dominant DMA
        dma_only = make_dpu(clock_hz=350e6)
        dma_only.charge_mram_read(0, 10 << 20)
        assert dpu.compute_seconds() == pytest.approx(dma_only.compute_seconds())

    def test_write_bandwidth_used_for_writes(self):
        r = make_dpu()
        r.charge_mram_read(0, 1 << 20, requests=0)
        w = make_dpu()
        w.charge_mram_write(0, 1 << 20, requests=0)
        ratio = r.compute_seconds() / w.compute_seconds()
        cost = CostModel()
        assert ratio == pytest.approx(
            cost.mram_write_bandwidth / cost.mram_read_bandwidth, rel=1e-6
        )
