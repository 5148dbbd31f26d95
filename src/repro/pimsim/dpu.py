"""DPU model: one in-order PIM core with fine-grained multithreading.

Kernels run *functionally* (their NumPy/Python code computes the real result)
and *charge* the DPU for the work they did: instructions per tasklet and
MRAM DMA traffic.  The DPU converts those charges into simulated time using
the pipeline model characterized by the PrIM study:

* The 14-stage pipeline interleaves tasklets round-robin; each tasklet can
  issue at most one instruction every ``pipeline_saturation`` (=11) cycles,
  so aggregate throughput is ``min(1, active/11)`` instructions per cycle.
* MRAM accesses go through a DMA engine; a transfer costs a fixed setup
  latency plus size/bandwidth, and stalls only the issuing tasklet.

Time is computed by exact water-filling over the per-tasklet cycle budgets:
while ``A`` tasklets remain active each progresses at ``clock / max(A, 11)``
cycles per second of its own budget; when the smallest remaining budget
drains, ``A`` decreases and the rate re-evaluates.  This reproduces both the
saturated regime (16 busy tasklets -> 1 instr/cycle aggregate) and the tail
(an imbalanced tasklet finishes at 1/11 of peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import KernelLaunchError
from .config import CostModel, DpuConfig
from .mram import Mram
from .wram import Wram

__all__ = ["Dpu", "DpuRunStats"]


@dataclass(frozen=True)
class DpuRunStats:
    """Charges accumulated by one DPU over one kernel launch."""

    instructions: int
    dma_requests: int
    dma_bytes: int
    compute_seconds: float


@dataclass
class Dpu:
    """One simulated PIM core."""

    dpu_id: int
    config: DpuConfig
    cost: CostModel
    mram: Mram = field(init=False)
    wram: Wram = field(init=False)

    def __post_init__(self) -> None:
        self.mram = Mram(capacity=self.config.mram_bytes)
        self.wram = Wram(capacity=self.config.wram_bytes, num_tasklets=self.config.num_tasklets)
        # Lifetime work ledger: accumulates across launches (reset_charges
        # does not touch it).  Pure observation for the imbalance analysis —
        # never read by the cost model, so it cannot perturb simulated time.
        self.lifetime_instructions = 0.0
        self.lifetime_dma_requests = 0
        self.lifetime_dma_bytes = 0
        self.reset_charges()

    # ----------------------------------------------------------------- charges
    def reset_charges(self) -> None:
        """Zero the per-launch instruction/DMA ledgers (lifetime totals persist)."""
        n = self.config.num_tasklets
        self._instr = np.zeros(n, dtype=np.float64)
        self._dma_seconds = np.zeros(n, dtype=np.float64)
        self._dma_requests = 0
        self._dma_bytes = 0

    def charge_instructions(self, tasklet: int, count: float) -> None:
        """Charge ``count`` instructions to one tasklet."""
        self._check_tasklet(tasklet)
        self._instr[tasklet] += float(count)
        self.lifetime_instructions += float(count)

    def charge_instructions_all(self, per_tasklet: np.ndarray) -> None:
        """Charge a whole vector of instruction counts (index = tasklet ID)."""
        arr = np.asarray(per_tasklet, dtype=np.float64)
        if arr.shape != self._instr.shape:
            raise KernelLaunchError(
                f"expected {self._instr.size} tasklet charges, got shape {arr.shape}"
            )
        self._instr += arr
        self.lifetime_instructions += float(arr.sum())

    def charge_balanced(self, total_instructions: float) -> None:
        """Charge work that the kernel splits evenly over all tasklets."""
        self._instr += float(total_instructions) / self.config.num_tasklets
        self.lifetime_instructions += float(total_instructions)

    def charge_mram_read(self, tasklet: int, nbytes: int, requests: int = 1) -> None:
        """Charge a DMA read of ``nbytes`` split over ``requests`` transfers."""
        self._charge_dma(tasklet, nbytes, requests, self.cost.mram_read_bandwidth)

    def charge_mram_write(self, tasklet: int, nbytes: int, requests: int = 1) -> None:
        self._charge_dma(tasklet, nbytes, requests, self.cost.mram_write_bandwidth)

    def charge_mram_read_all(self, nbytes, requests=1) -> None:
        """Charge every tasklet a DMA read at once (index = tasklet ID).

        ``nbytes`` and ``requests`` are per-tasklet integer vectors or
        scalars applied to every tasklet; the charge equals one
        :meth:`charge_mram_read` call per tasklet, bit for bit.
        """
        self._charge_dma_all(nbytes, requests, self.cost.mram_read_bandwidth)

    def charge_mram_write_all(self, nbytes, requests=1) -> None:
        """Vector form of :meth:`charge_mram_write` (see :meth:`charge_mram_read_all`)."""
        self._charge_dma_all(nbytes, requests, self.cost.mram_write_bandwidth)

    def _charge_dma_all(self, nbytes, requests, bandwidth: float) -> None:
        nbytes = self._per_tasklet(nbytes)
        requests = self._per_tasklet(requests)
        if (nbytes < 0).any() or (requests < 0).any():
            raise KernelLaunchError("DMA charge must be non-negative")
        setup = requests * self.cost.mram_dma_latency_cycles / self.config.clock_hz
        self._dma_seconds += setup + nbytes / bandwidth
        self._dma_requests += int(requests.sum())
        self._dma_bytes += int(nbytes.sum())
        self.lifetime_dma_requests += int(requests.sum())
        self.lifetime_dma_bytes += int(nbytes.sum())

    def _charge_dma(self, tasklet: int, nbytes: int, requests: int, bandwidth: float) -> None:
        # The other tasklets are charged exact zeros, which leave them as-is.
        self._check_tasklet(tasklet)
        charge = np.zeros((2, self.config.num_tasklets), dtype=np.int64)
        charge[:, tasklet] = nbytes, requests
        self._charge_dma_all(charge[0], charge[1], bandwidth)

    def _per_tasklet(self, values) -> np.ndarray:
        """``values`` as an int64 vector with one entry per tasklet."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim and arr.shape != self._dma_seconds.shape:
            raise KernelLaunchError(
                f"expected {self._dma_seconds.size} tasklet charges, got shape {arr.shape}"
            )
        return np.broadcast_to(arr, self._dma_seconds.shape)

    def _check_tasklet(self, tasklet: int) -> None:
        if not (0 <= tasklet < self.config.num_tasklets):
            raise KernelLaunchError(
                f"tasklet {tasklet} out of range [0, {self.config.num_tasklets})"
            )

    # ------------------------------------------------------------------- time
    def compute_seconds(self) -> float:
        """Execution time of the charges accumulated so far.

        Two resources bound a DPU: the instruction pipeline (water-filled over
        the per-tasklet instruction budgets) and the MRAM DMA engine, whose
        streaming bandwidth is shared by *all* tasklets — DMA time therefore
        sums across tasklets instead of overlapping.  Tasklet-level fine-
        grained multithreading overlaps the two, so the DPU finishes at the
        slower of the two resources (the PrIM "pipeline-bound vs MRAM-bound"
        regimes).
        """
        pipeline = self._waterfill_seconds(self._instr)
        dma = float(self._dma_seconds.sum())
        return max(pipeline, dma)

    def _waterfill_seconds(self, budgets_in: np.ndarray) -> float:
        """Water-filled pipeline time for per-tasklet instruction budgets."""
        clock = self.config.clock_hz
        sat = self.config.pipeline_saturation
        budgets = np.sort(budgets_in[budgets_in > 0.0])
        if budgets.size == 0:
            return 0.0
        t = 0.0
        done = 0.0  # cycles already drained from every remaining tasklet
        n = budgets.size
        for i in range(n):
            active = n - i
            rate = clock / max(active, sat)  # cycles/sec each active tasklet drains
            remaining = budgets[i] - done
            if remaining > 0:
                t += remaining / rate
                done = budgets[i]
        return float(t)

    def charge_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the per-tasklet (instruction, DMA-seconds) ledgers.

        The executor parity tests compare these across execution engines:
        a process-engine worker must hand back exactly the vectors a serial
        run would have accumulated.
        """
        return self._instr.copy(), self._dma_seconds.copy()

    def run_stats(self) -> DpuRunStats:
        return DpuRunStats(
            instructions=int(self._instr.sum()),
            dma_requests=self._dma_requests,
            dma_bytes=self._dma_bytes,
            compute_seconds=self.compute_seconds(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dpu(id={self.dpu_id}, mram_used={self.mram.used})"
