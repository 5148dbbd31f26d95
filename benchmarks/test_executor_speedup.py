"""Host-side wall-clock benchmarks: executor engines.

Unlike the experiment benchmarks (simulated PIM time), this measures the
library's own wall-clock — the quantity the execution engines exist to
shrink.  At ``C=8`` the pipeline runs ``binom(10,3) = 120`` independent DPU
kernels; the process engine chunks them over ``os.cpu_count()`` workers.

The ``>= 2x`` speedup assertion only fires on machines with 4+ usable cores
(single-core CI boxes can't exhibit parallel speedup; there the benchmark
still records both timings so ``BENCH_*.json`` tracks the trajectory).
Simulated results are asserted bit-identical in all cases — engines are
wall-clock knobs only.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.api import PimTriangleCounter
from repro.graph.datasets import get_dataset

from conftest import bench_tier

TIER = bench_tier()
COLORS = 8  # binom(10, 3) = 120 DPU kernels to spread over workers


@pytest.fixture(scope="module")
def graph():
    return get_dataset("kronecker23", TIER)


def _count_seconds(graph, executor: str, jobs: int | None = None):
    counter = PimTriangleCounter(num_colors=COLORS, seed=0, executor=executor, jobs=jobs)
    start = time.perf_counter()
    result = counter.count(graph)
    return result, time.perf_counter() - start


def test_executor_speedup_serial_vs_process(benchmark, graph):
    serial_result, serial_s = _count_seconds(graph, "serial")

    result = {}

    def process_run() -> None:
        result["r"], result["s"] = _count_seconds(graph, "process", jobs=os.cpu_count())

    benchmark.pedantic(process_run, rounds=1, iterations=1)
    process_result, process_s = result["r"], result["s"]

    # The engine must not perturb the functional result or the cost model.
    assert process_result.count == serial_result.count
    assert process_result.clock.phases == serial_result.clock.phases

    speedup = serial_s / process_s if process_s > 0 else float("inf")
    benchmark.extra_info["tier"] = TIER
    benchmark.extra_info["num_colors"] = COLORS
    benchmark.extra_info["cores"] = os.cpu_count()
    benchmark.extra_info["serial_wall_s"] = round(serial_s, 4)
    benchmark.extra_info["process_wall_s"] = round(process_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    if (os.cpu_count() or 1) >= 4 and TIER != "tiny":
        assert speedup >= 2.0, (
            f"process engine {speedup:.2f}x vs serial on {os.cpu_count()} cores; "
            "expected >= 2x with 4+ cores"
        )


def test_executor_thread_parity_wallclock(benchmark, graph):
    """Thread engine: record its wall-clock too (NumPy releases the GIL)."""
    serial_result, _ = _count_seconds(graph, "serial")

    result = {}

    def thread_run() -> None:
        result["r"], result["s"] = _count_seconds(graph, "thread", jobs=os.cpu_count())

    benchmark.pedantic(thread_run, rounds=1, iterations=1)
    assert result["r"].count == serial_result.count
    assert result["r"].clock.phases == serial_result.clock.phases
    benchmark.extra_info["tier"] = TIER
    benchmark.extra_info["thread_wall_s"] = round(result["s"], 4)
