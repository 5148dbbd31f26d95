"""Host-side orchestration of the PIM triangle-counting run (paper Sec. 3).

The pipeline reproduces the paper's host program step by step:

1. **Setup** — allocate ``binom(C+2,3)`` PIM cores, load the kernel, charge
   the host-side buffer allocation and graph-load cost.
2. **Sample creation** — stream the COO edges applying uniform sampling
   (Sec. 3.2) and, if enabled, the per-thread Misra-Gries summaries
   (Sec. 3.5); color endpoints with the universal hash and route each edge to
   its ``C`` compatible cores (Sec. 3.1); transfer the batches (rank-padded
   parallel scatter); insert into each core's MRAM region with reservoir
   replacement when the region is full (Sec. 3.3).
3. **Triangle count** — launch the counting kernel, gather per-core counts,
   apply the reservoir / monochromatic / uniform corrections (Sec. 3.1-3.3),
   free the cores.

Simulated time accumulates into the paper's three phases; host work is
modeled with the ``CostModel`` host constants (32 threads by default, a fixed
cycle budget per streamed edge, and a memcpy bandwidth for batch assembly).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..coloring.partition import (
    PARTITIONER_STRATEGIES,
    ColoringPartitioner,
    DegreePartitioner,
    EdgePartition,
    make_partitioner,
)
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..graph.coo import COOGraph
from ..pimsim.config import PimSystemConfig
from ..pimsim.dpu import Dpu
from ..pimsim.executor import _timed_task
from ..pimsim.kernel import SimClock
from ..pimsim.system import DpuSet, PimSystem
from ..streaming.estimators import combine_dpu_counts
from ..streaming.misra_gries import MisraGries
from ..streaming.reservoir import EdgeReservoir, reservoir_scale
from ..streaming.uniform import uniform_keep_mask
from ..telemetry.metrics import DEFAULT_FRACTION_BUCKETS
from ..telemetry.spans import SpanRecord, Telemetry
from .ingest import IngestClock, iter_edge_batches, num_batches
from .kernel_tc_fast import KernelCosts, TriangleCountKernel
from .remap import RemapTable
from .result import KernelAggregate, TcResult

__all__ = ["KERNEL_VARIANTS", "PimTcOptions", "PimTcPipeline"]

#: Counting-kernel variants: the paper's merge intersection (Sec. 3.4) and
#: the binary-search probe ablation.  Both count with the same arithmetic;
#: they differ only in the charged cost model.
KERNEL_VARIANTS = ("merge", "probe")


def _ingest_chunk(dpu: Dpu, payload: tuple) -> tuple[EdgeReservoir, int, float]:
    """Per-DPU ingest task: offer one routed chunk to the core's reservoir.

    The reservoir persists across chunks (its ``seen`` counter keeps the
    global arrival index, so chunked offers reproduce the sequential
    acceptance distribution) and travels through the payload/result so the
    process engine's pickled copy, RNG state included, makes it back to the
    host, which materializes the final contents into MRAM.  Charges: every
    offered edge, 4 more instructions per edge of replacement bookkeeping
    once the reservoir overflows, and MRAM writes for the edges the chunk
    adds to the resident set.  ``skip_idle`` leaves a core routed nothing
    untouched (an overlapped chunk); otherwise the launch opens every core's
    region, one DMA request per tasklet even with nothing to write.
    """
    reservoir, s_arr, d_arr, costs, skip_idle = payload
    dpu.reset_charges()
    n_in = int(s_arr.size)
    if n_in == 0 and skip_idle:
        return reservoir, 0, 0.0
    overflow = reservoir.seen + n_in > reservoir.capacity
    resident = reservoir.size
    reservoir.offer_batch(s_arr, d_arr)
    extra = 4.0 if overflow else 0.0
    dpu.charge_balanced(n_in * (costs.insert_instr_per_edge + extra))
    added = reservoir.size - resident
    per_tasklet_bytes = added * costs.edge_bytes / dpu.config.num_tasklets
    dpu.charge_mram_write_all(int(per_tasklet_bytes), requests=1)
    return reservoir, n_in, dpu.compute_seconds()


@dataclass
class _PreparedRun:
    """State handed from the shared sample-creation phase to a count phase."""

    clock: SimClock
    dpus: DpuSet
    partitioner: ColoringPartitioner
    routed_counts: np.ndarray
    uniform_p: float
    seen: np.ndarray
    capacity: int
    wall_start: float
    edges_kept: int
    #: Number of ingest chunks (1 when ``batch_edges`` is ``None``).
    ingest_batches: int = 1
    #: Peak bytes of routed edge buffers resident on the host at once.
    peak_routed_bytes: int = 0
    #: Per-DPU simulated seconds of sample insertion (imbalance ledger input).
    #: Indexed by *physical core* (== triplet when no rebalance happened).
    insert_seconds: np.ndarray | None = None
    #: Misra-Gries remap table broadcast to the cores (None when disabled).
    remap_nodes: np.ndarray | None = None
    #: Triplet -> physical core map after between-batch rebalancing;
    #: ``None`` means the identity (one-chunk ingest, or no rebalance fired).
    dpu_of_triplet: np.ndarray | None = None
    #: One record per rebalance event (batch index, trigger cv, moved work).
    rebalances: list = field(default_factory=list)

    def reservoir_scales(self) -> np.ndarray:
        return np.array(
            [reservoir_scale(self.capacity, int(t)) for t in self.seen],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class PimTcOptions:
    """User-facing knobs of one triangle-counting run (the paper's parameters)."""

    #: ``C`` — number of node colors; PIM cores used = ``binom(C+2, 3)``.
    num_colors: int = 4
    #: Uniform sampling keep-probability ``p`` (Sec. 3.2); 1.0 = exact path.
    uniform_p: float = 1.0
    #: Per-core reservoir capacity in edges (Sec. 3.3); ``None`` sizes it from
    #: the MRAM bank, which at paper scale effectively disables sampling.
    reservoir_capacity: int | None = None
    #: Misra-Gries table size ``K`` (0 disables the summary entirely).
    misra_gries_k: int = 0
    #: Number of top-degree nodes ``t`` remapped inside the PIM cores.
    misra_gries_t: int = 0
    #: Root seed for coloring / sampling / reservoir streams.
    seed: int = 0
    #: Instruction-cost constants of the DPU kernel.
    kernel_costs: KernelCosts = field(default_factory=KernelCosts)
    #: Extra host cycles per edge spent updating the Misra-Gries summary.
    mg_host_cycles_per_edge: float = 25.0
    #: Fraction of MRAM reserved for the region table, stats and stack.
    mram_reserve_fraction: float = 0.0625
    #: Counting kernel, one of ``KERNEL_VARIANTS``: "merge" (the paper's,
    #: Sec. 3.4) or "probe" (binary-search wedge checks; see
    #: core.kernel_tc_probe).
    kernel_variant: str = "merge"
    #: Host-side per-core batch buffer, in edges.  The paper's host flushes
    #: each core's batch array to the PIM side as it fills while streaming the
    #: input file; ``None`` models one bulk scatter (batch = whole sample).
    transfer_batch_edges: int | None = None
    #: Streaming-ingest chunk size in *input* edges.  The host runs one
    #: ingest loop — sample, Misra-Gries update, route, transfer, reservoir
    #: insert — per chunk.  ``None`` makes the whole stream one chunk whose
    #: costs advance the clock one by one.  When set, routed-buffer memory is
    #: bounded at ``O(batch_edges * C)`` and host routing of chunk ``k+1``
    #: overlaps DPU insertion of chunk ``k`` (double buffering).
    batch_edges: int | None = None
    #: Partitioning strategy: "hash" (universal hash coloring, the paper's),
    #: "degree" (degree-based hub placement, Kolountzakis et al.), or "auto"
    #: (pick strategy / C / Misra-Gries from graph stats, with a decision
    #: trace in the result meta).  Counts are identical across strategies.
    partitioner: str = "hash"
    #: Between-batch rebalance trigger for the chunked ingest path: when the
    #: coefficient of variation of accumulated per-core insert seconds
    #: exceeds this value, the triplet->core assignment is recomputed for
    #: subsequent chunks (resident samples migrate, charged as a scatter).
    #: ``None`` disables rebalancing.
    rebalance_cv: float | None = None

    def __post_init__(self) -> None:
        if self.num_colors < 1:
            raise ConfigurationError("num_colors must be >= 1")
        if self.partitioner not in PARTITIONER_STRATEGIES:
            raise ConfigurationError(
                f"partitioner must be one of {PARTITIONER_STRATEGIES}, "
                f"got {self.partitioner!r}"
            )
        if self.rebalance_cv is not None and self.rebalance_cv < 0:
            raise ConfigurationError("rebalance_cv must be >= 0 or None")
        if self.kernel_variant not in KERNEL_VARIANTS:
            raise ConfigurationError(
                f"kernel_variant must be one of {KERNEL_VARIANTS}, "
                f"got {self.kernel_variant!r}"
            )
        if self.transfer_batch_edges is not None and self.transfer_batch_edges < 1:
            raise ConfigurationError("transfer_batch_edges must be >= 1 or None")
        if self.batch_edges is not None and self.batch_edges < 1:
            raise ConfigurationError("batch_edges must be >= 1 or None")
        # No triangle fits in fewer than 3 edges, so a smaller reservoir
        # silently zeroes the estimate; a reserve of the whole bank (or more)
        # sizes it to nothing, a negative one beyond the bank.
        if self.reservoir_capacity is not None and self.reservoir_capacity < 3:
            raise ConfigurationError("reservoir_capacity must be >= 3 or None")
        if not (0.0 <= self.mram_reserve_fraction < 1.0):
            raise ConfigurationError("mram_reserve_fraction must be in [0, 1)")
        if not (0.0 < self.uniform_p <= 1.0):
            raise ConfigurationError("uniform_p must be in (0, 1]")
        if self.misra_gries_t > 0 and self.misra_gries_k <= 0:
            raise ConfigurationError("misra_gries_t requires misra_gries_k > 0")
        if self.misra_gries_k > 0 and self.misra_gries_t <= 0:
            raise ConfigurationError("misra_gries_k requires misra_gries_t > 0")


class PimTcPipeline:
    """One configured pipeline; reusable across graphs."""

    def __init__(
        self,
        options: PimTcOptions | None = None,
        system: PimSystem | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.options = options or PimTcOptions()
        self.system = system or PimSystem(PimSystemConfig())
        # Telemetry is on by default: with detail off it only opens the
        # phase/operation spans (~a dozen perf_counter reads per run).  A
        # pipeline reused across graphs accumulates spans and metrics; pass a
        # fresh recorder per run when per-run reports are wanted.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        from ..coloring.triplets import num_triplets

        needed = num_triplets(self.options.num_colors)
        if needed > self.system.config.total_dpus:
            raise ConfigurationError(
                f"{self.options.num_colors} colors need {needed} PIM cores but the "
                f"system has {self.system.config.total_dpus}"
            )

    # ------------------------------------------------------------------ helpers
    @property
    def active_options(self) -> PimTcOptions:
        """Options in effect for the current run ("auto" already resolved)."""
        resolved = getattr(self, "_effective_options", None)
        return resolved if resolved is not None else self.options

    @property
    def autotune_decision(self):
        """The :class:`AutoTuneDecision` of the current run, or None."""
        return getattr(self, "_autotune", None)

    def _resolve_options(self, graph: COOGraph) -> None:
        """Resolve the "auto" strategy against ``graph`` before a run.

        Stores the per-run effective options (strategy, C, Misra-Gries) and
        the tuner's decision trace; a pipeline reused across graphs resolves
        afresh per run.  Non-auto strategies pass through unchanged, so hash
        runs stay bit-identical to pipelines predating this knob.
        """
        from dataclasses import replace

        opts = self.options
        self._autotune = None
        if opts.partitioner == "auto":
            from ..coloring.autotune import auto_tune

            decision = auto_tune(
                graph,
                max_dpus=self.system.config.total_dpus,
                misra_gries_k=opts.misra_gries_k or None,
                misra_gries_t=opts.misra_gries_t or None,
            )
            self._autotune = decision
            opts = replace(
                opts,
                partitioner=decision.strategy,
                num_colors=decision.num_colors,
                misra_gries_k=decision.misra_gries_k or 0,
                misra_gries_t=decision.misra_gries_t or 0,
            )
        self._effective_options = opts

    def _host_seconds(self, cycles_per_item: float, items: int) -> float:
        cost = self.system.config.cost
        return cycles_per_item * items / (cost.host_clock_hz * cost.host_threads)

    def _reservoir_capacity(self) -> int:
        opts = self.active_options
        if opts.reservoir_capacity is not None:
            return int(opts.reservoir_capacity)
        dpu_cfg = self.system.config.dpu
        usable = int(dpu_cfg.mram_bytes * (1.0 - opts.mram_reserve_fraction))
        return max(1, usable // opts.kernel_costs.edge_bytes)

    # --------------------------------------------------------------------- run
    def run(self, graph: COOGraph) -> TcResult:
        """Execute the full pipeline on ``graph`` and return the result."""
        self._resolve_options(graph)
        opts = self.active_options
        if opts.kernel_variant == "probe":
            from .kernel_tc_probe import ProbeTriangleCountKernel

            kernel = ProbeTriangleCountKernel(
                num_nodes=graph.num_nodes, costs=opts.kernel_costs
            )
        else:
            kernel = TriangleCountKernel(
                num_nodes=graph.num_nodes, costs=opts.kernel_costs
            )
        prep = self._prepare(graph, kernel)
        return self._finish_global(graph, prep)

    def _setup_phase(
        self, graph: COOGraph, kernel, clock: SimClock, rngs: RngFactory
    ) -> tuple[ColoringPartitioner, DpuSet]:
        """Setup phase: allocate the cores, load the kernel, load the graph."""
        opts = self.active_options
        cost = self.system.config.cost
        with self.telemetry.span("setup", clock=clock):
            partitioner = make_partitioner(
                opts.partitioner, opts.num_colors, rngs.stream("coloring")
            )
            if isinstance(partitioner, DegreePartitioner):
                # Degree-based coloring needs a host pass over the edge list
                # (degree count + greedy hub placement) before routing starts.
                partitioner.fit(graph)
                clock.advance(
                    "setup", self._host_seconds(2.0, graph.num_edges)
                )
            dpus = self.system.allocate(
                partitioner.num_dpus, clock, telemetry=self.telemetry
            )
            dpus.load_kernel(kernel, phase="setup")
            # Host: load the graph file into memory + allocate per-core batch arrays.
            clock.advance(
                "setup",
                graph.nbytes() / cost.host_memcpy_bandwidth
                + self._host_seconds(200.0, partitioner.num_dpus),
            )
        return partitioner, dpus

    def _prepare(self, graph: COOGraph, kernel) -> "_PreparedRun":
        """Setup + sample-creation phases, shared by global and local counting.

        One ingest loop over the edge stream (see :mod:`repro.core.ingest`).
        ``batch_edges=None`` makes the whole stream one chunk; with
        ``batch_edges`` set the host routes chunk ``k+1`` while the cores
        insert chunk ``k``.  For each chunk the host draws the uniform
        keep-mask (consecutive draws from one stream, so every chunking keeps
        the same edges), folds the survivors into the Misra-Gries summary,
        colors and routes them, scatters the per-core arrays and hands them
        to the execution engine, which offers them to per-core reservoirs.
        :class:`IngestClock` decides how those costs reach the clock.
        Reservoirs persist across chunks, so acceptance probabilities use
        global arrival indices (sequential distribution, property-tested);
        while no reservoir overflows, the final MRAM contents do not depend
        on the chunking.  The summary is final once the last chunk is
        routed, so its remap table is broadcast before that chunk's insert
        is joined.

        Engine invariance: every quantity fed to the clock — keep-masks,
        partition counts, reservoir offers via per-DPU derived RNG streams,
        charge totals — is deterministic, so serial/thread/process executors
        stay bit-identical on counts, clocks, and charges.
        """
        opts = self.active_options
        cost = self.system.config.cost
        rngs = RngFactory(opts.seed)
        wall_start = time.perf_counter()
        clock = SimClock()
        tel = self.telemetry
        partitioner, dpus = self._setup_phase(graph, kernel, clock, rngs)

        num_dpus = partitioner.num_dpus
        capacity = self._reservoir_capacity()
        edge_bytes = opts.kernel_costs.edge_bytes
        uniform_rng = rngs.stream("uniform")
        reservoirs = [
            EdgeReservoir(capacity, rngs.stream("reservoir", index=d))
            for d in range(num_dpus)
        ]
        merged_mg = MisraGries(opts.misra_gries_k) if opts.misra_gries_k > 0 else None
        ingest = IngestClock(
            clock,
            "sample_creation",
            overlap=opts.batch_edges is not None,
            launch_latency=cost.launch_latency,
            trace=dpus.trace,
            telemetry=tel,
        )
        # Detail telemetry times each core's task where it runs.
        timed = tel.enabled and tel.detail
        task = partial(_timed_task, _ingest_chunk) if timed else _ingest_chunk
        routed_counts = np.zeros(num_dpus, dtype=np.int64)
        insert_secs = np.zeros(num_dpus, dtype=np.float64)
        edges_kept = 0
        peak_routed_bytes = 0
        window_bytes = 0  # routed bytes of the still-inserting previous chunk
        # Triplet -> physical core map; rebalancing permutes it between chunks.
        dpu_of_triplet = np.arange(num_dpus, dtype=np.int64)
        rebalances: list[dict] = []
        pending: tuple | None = None  # (chunk, join, perm, targets, kept_k)

        def drain(entry: tuple) -> None:
            """Join one in-flight chunk and charge its insert launch."""
            chunk, join, perm, targets, kept_k = entry
            results = join()
            records = None
            if timed:
                records = [
                    SpanRecord(name=f"dpu{core}", wall_seconds=wall, sim_seconds=res[2])
                    for core, (res, wall) in zip(perm.tolist(), results)
                ]
                results = [res for res, _ in results]
            for t, core in enumerate(perm.tolist()):
                reservoirs[t], _n_in, secs = results[t]
                insert_secs[core] += secs
                # The process engine splices post-run DPU state into the list
                # it was handed; that list is our triplet-ordered view, so
                # propagate the (possibly replaced) objects to their slots.
                dpus.dpus[core] = targets[t]
            ingest.close(chunk, max((secs for _, _, secs in results), default=0.0), records)
            if not ingest.overlapped:
                return
            # Live heartbeat for `repro-watch`: pure observation of values the
            # schedule already holds.  The ETA extrapolates the two-buffer
            # recurrence — remaining batches at the mean per-batch growth of
            # the device-finish front (D(k)/k), which in steady state is
            # max(h, d) per chunk.
            schedule, k = ingest.schedule, chunk.index
            batches_total = num_batches(graph.num_edges, opts.batch_edges)
            done = schedule.batches
            eta = (batches_total - done) * (schedule.elapsed / done)
            tel.emit_event(
                "heartbeat",
                batch=int(k),
                batches_total=int(batches_total),
                edges_streamed=int(min((k + 1) * opts.batch_edges, graph.num_edges)),
                edges_total=int(graph.num_edges),
                edges_kept=int(kept_k),
                routed_bytes=int(chunk.xfer_bytes),
                peak_routed_bytes=int(peak_routed_bytes),
                sim_elapsed_seconds=float(schedule.elapsed),
                eta_sim_seconds=float(eta),
            )

        with tel.span("sample_creation", clock=clock):
            for k, s_chunk, d_chunk in iter_edge_batches(graph.src, graph.dst, opts.batch_edges):
                # Host side of chunk k: stream + sample + summarize + route.
                n_in = int(s_chunk.size)
                with ingest.stage("uniform_sample"):
                    ingest.host(self._host_seconds(cost.host_edge_cycles, n_in))
                    keep = uniform_keep_mask(n_in, opts.uniform_p, uniform_rng)
                    if opts.uniform_p < 1.0:
                        s_chunk, d_chunk = s_chunk[keep], d_chunk[keep]
                edges_kept += int(s_chunk.size)
                if merged_mg is not None:
                    with ingest.stage("misra_gries"):
                        self._mg_update(merged_mg, s_chunk, d_chunk)
                        mg_cycles = opts.mg_host_cycles_per_edge
                        ingest.host(self._host_seconds(mg_cycles, int(s_chunk.size)))
                with ingest.stage("partition"):
                    part = partitioner.assign_arrays(s_chunk, d_chunk)
                    routed_counts += part.counts
                    chunk_bytes = int(part.counts.sum()) * edge_bytes
                    # Batch assembly memcpy on the host.
                    ingest.host(chunk_bytes / cost.host_memcpy_bandwidth)
                # Double buffering keeps at most two chunks' routed buffers
                # resident: the one still inserting plus the one just routed.
                peak_routed_bytes = max(peak_routed_bytes, window_bytes + chunk_bytes)
                window_bytes = chunk_bytes
                if pending is not None:
                    drain(pending)
                    pending = None
                    if opts.rebalance_cv is not None:
                        dpu_of_triplet = self._maybe_rebalance(
                            dpus, clock, dpu_of_triplet, insert_secs,
                            routed_counts, reservoirs, capacity, edge_bytes,
                            k - 1, rebalances,
                        )
                # The transfer cost is evaluated under the *current* core map:
                # rank padding depends on which physical core each triplet's
                # bytes land on (identity map -> identical to the pre-map
                # ordering, so hash baselines stay bit-exact).
                core_counts = np.zeros(num_dpus, dtype=np.int64)
                core_counts[dpu_of_triplet] = part.counts
                with ingest.stage("scatter") as scatter_span:
                    rounds = self._scatter(dpus, ingest, core_counts, edge_bytes)
                    if scatter_span is not None:
                        scatter_span.attrs["rounds"] = rounds
                dpus.note_dpu_xfer(core_counts * edge_bytes)
                # Payloads are built only after the previous join so the
                # process engine's returned reservoirs (fresh RNG state) are
                # the ones offered the next chunk.
                payloads = [
                    (reservoirs[t], s_arr, d_arr, opts.kernel_costs, ingest.overlapped)
                    for t, (s_arr, d_arr) in enumerate(part.per_dpu)
                ]
                targets = [dpus.dpus[int(c)] for c in dpu_of_triplet]
                join = dpus.executor.map_dpus_async(task, targets, payloads)
                pending = (ingest.dispatch(), join, dpu_of_triplet, targets, edges_kept)

            remap_nodes = None
            if merged_mg is not None:
                remap_payload = self._mg_table(merged_mg, graph.num_nodes)
                if remap_payload.t > 0:
                    remap_nodes = remap_payload.nodes
                    with tel.span("broadcast_remap", clock=clock):
                        stats = dpus.transfer.broadcast(remap_payload.nbytes(), len(dpus))
                        clock.advance("sample_creation", stats.seconds)
                        dpus.trace.record(
                            "sample_creation", "broadcast", stats.seconds,
                            stats.payload_bytes, "remap_table",
                        )
                        dpus.note_dpu_xfer(remap_payload.nbytes())
            if pending is not None:
                drain(pending)
            # Materialize the final reservoir contents into each core's MRAM
            # region (the per-chunk tasks already charged the write work).
            # Reservoirs are triplet-ordered; route each to its physical core.
            for t, res in enumerate(reservoirs):
                dpu = dpus.dpus[int(dpu_of_triplet[t])]
                keep_src, keep_dst = res.edges()
                dpu.mram.store("sample_src", keep_src.astype(np.int32), count_write=False)
                dpu.mram.store("sample_dst", keep_dst.astype(np.int32), count_write=False)
                if remap_nodes is not None:
                    dpu.mram.store("remap_table", remap_nodes, count_write=False)
            seen = np.array([res.seen for res in reservoirs], dtype=np.int64)

        if tel.enabled and ingest.overlapped:
            m = tel.metrics
            m.counter(
                "host.ingest.batches", help="streaming ingest chunks processed"
            ).inc(ingest.chunks)
            if rebalances:
                m.counter(
                    "host.rebalance.events",
                    help="between-batch triplet->core rebalances",
                ).inc(len(rebalances))
                m.counter(
                    "host.rebalance.moved_bytes",
                    help="resident sample bytes migrated by rebalancing",
                ).inc(sum(r["moved_bytes"] for r in rebalances))
            m.gauge(
                "host.ingest.peak_routed_bytes",
                help="peak bytes of routed edge buffers resident on the host",
            ).set(peak_routed_bytes)
            m.counter(
                "host.ingest.overlap_saved_seconds",
                help="simulated seconds hidden by double-buffered ingest",
            ).inc(ingest.schedule.saved_seconds)
        self._record_sample_metrics(
            graph.num_edges, edges_kept, routed_counts, seen, capacity
        )
        return _PreparedRun(
            clock=clock,
            dpus=dpus,
            partitioner=partitioner,
            routed_counts=routed_counts,
            uniform_p=float(opts.uniform_p),
            seen=seen,
            capacity=capacity,
            wall_start=wall_start,
            edges_kept=edges_kept,
            ingest_batches=ingest.chunks,
            peak_routed_bytes=peak_routed_bytes,
            insert_seconds=insert_secs,
            remap_nodes=remap_nodes,
            dpu_of_triplet=dpu_of_triplet if rebalances else None,
            rebalances=rebalances,
        )

    def _scatter(
        self, dpus: DpuSet, ingest: IngestClock, counts: np.ndarray, edge_bytes: int
    ) -> int:
        """Rank-padded parallel scatter of one routed chunk; returns the rounds.

        With a finite ``transfer_batch_edges`` buffer the host flushes every
        time the fullest core's buffer fills, so the transfer happens in
        rounds; each round moves at most that many edges per core and pays
        the per-transfer latency.
        """
        batch = self.active_options.transfer_batch_edges
        if batch is None:
            ingest.transfer(dpus.transfer.scatter(counts * edge_bytes), "edge batches")
            return 1
        remaining = counts.copy()
        rounds = 0
        while remaining.max(initial=0) > 0:
            this_round = np.minimum(remaining, batch)
            ingest.transfer(
                dpus.transfer.scatter(this_round * edge_bytes),
                f"edge batch round {rounds}",
            )
            remaining -= this_round
            rounds += 1
        return rounds

    def _finish_global(self, graph: COOGraph, prep: "_PreparedRun") -> TcResult:
        """Triangle-count phase for the global counting kernel."""
        opts = self.active_options
        clock, dpus, partitioner = prep.clock, prep.dpus, prep.partitioner
        with self.telemetry.span("triangle_count", clock=clock):
            dpus.launch(phase="triangle_count")
            raw_arrays = dpus.gather("triangle_count", phase="triangle_count")
            raw_counts = np.array([int(a[0]) for a in raw_arrays], dtype=np.int64)
            if prep.dpu_of_triplet is not None:
                # Gathers are physical-core ordered; the correction math wants
                # triplet order (scales, mono mask are triplet-indexed).
                raw_counts = raw_counts[prep.dpu_of_triplet]
            scales = prep.reservoir_scales()
            mono = partitioner.mono_mask()
            with self.telemetry.span("correction", clock=clock):
                estimate = combine_dpu_counts(
                    raw_counts,
                    scales,
                    mono,
                    num_colors=opts.num_colors,
                    uniform_p=prep.uniform_p,
                )
                # Host-side final reduction over per-core counts.
                clock.advance(
                    "triangle_count", self._host_seconds(10.0, partitioner.num_dpus)
                )

            return self._close_count(TcResult, graph, prep, estimate, raw_counts, scales)

    def _close_count(
        self, cls, graph: COOGraph, prep: "_PreparedRun", estimate, raw_counts, scales,
        **extra,
    ):
        """End the count phase — harvest the charges, free the cores — and
        build the ``cls`` result shared by the global and local paths."""
        dpus = prep.dpus
        kernel_aggregate = self._aggregate(dpus)
        imbalance = self._harvest_imbalance(prep)
        dpus.free()
        self._record_kernel_metrics(kernel_aggregate)
        return cls(
            estimate=estimate,
            num_colors=self.active_options.num_colors,
            num_dpus=prep.partitioner.num_dpus,
            clock=prep.clock,
            per_dpu_counts=raw_counts,
            reservoir_scales=scales,
            edges_routed=prep.routed_counts,
            edges_input=graph.num_edges,
            uniform_p=prep.uniform_p,
            kernel=kernel_aggregate,
            host_wall_seconds=time.perf_counter() - prep.wall_start,
            meta=self._run_meta(prep),
            trace=dpus.trace,
            telemetry=self.telemetry,
            imbalance=imbalance,
            **extra,
        )

    def _run_meta(self, prep: "_PreparedRun") -> dict:
        """Result meta shared by the global and local count paths."""
        opts = self.active_options
        meta = {
            "reservoir_capacity": prep.capacity,
            "edges_kept": prep.edges_kept,
            "misra_gries": (opts.misra_gries_k, opts.misra_gries_t),
            "ingest_batches": prep.ingest_batches,
            "peak_routed_bytes": prep.peak_routed_bytes,
            "partitioner": prep.partitioner.strategy,
            "rebalances": list(prep.rebalances),
        }
        decision = self.autotune_decision
        if decision is not None:
            meta["autotune"] = decision.to_dict()
        return meta

    def run_local(self, graph: COOGraph) -> "LocalTcResult":
        """Per-node (local) triangle counting — see :mod:`repro.core.local`."""
        from .local import LocalCountKernel
        from .result import LocalTcResult

        self._resolve_options(graph)
        opts = self.active_options
        kernel = LocalCountKernel(num_nodes=graph.num_nodes, costs=opts.kernel_costs)
        prep = self._prepare(graph, kernel)
        clock, dpus, partitioner = prep.clock, prep.dpus, prep.partitioner

        with self.telemetry.span("triangle_count", clock=clock):
            dpus.launch(phase="triangle_count")
            # The local gather is heavy: one num_nodes-long vector per core.
            local_arrays = dpus.gather("local_counts", phase="triangle_count")
            # The scalar totals come back through the same gather path as the
            # global pipeline, so the local path pays the identical transfer
            # cost and emits the identical trace events per symbol.
            raw_arrays = dpus.gather("triangle_count", phase="triangle_count")
            raw_counts = np.array([int(a[0]) for a in raw_arrays], dtype=np.int64)
            if prep.dpu_of_triplet is not None:
                raw_counts = raw_counts[prep.dpu_of_triplet]
                local_arrays = [local_arrays[int(c)] for c in prep.dpu_of_triplet]
            scales = prep.reservoir_scales()
            mono = partitioner.mono_mask()

            with self.telemetry.span("correction", clock=clock):
                locals_matrix = np.stack(local_arrays).astype(np.float64)
                locals_matrix /= scales[:, None]
                combined = locals_matrix.sum(axis=0)
                combined -= (opts.num_colors - 1) * locals_matrix[mono].sum(axis=0)
                combined /= prep.uniform_p**3
                estimate = float(combined.sum() / 3.0)
                # Host-side vector reduction over all cores.
                clock.advance(
                    "triangle_count",
                    self._host_seconds(2.0, partitioner.num_dpus * graph.num_nodes),
                )

            return self._close_count(
                LocalTcResult, graph, prep, estimate, raw_counts, scales,
                local_estimates=combined,
            )

    # ----------------------------------------------------------------- internals
    def _maybe_rebalance(
        self,
        dpus: DpuSet,
        clock: SimClock,
        dpu_of_triplet: np.ndarray,
        insert_secs: np.ndarray,
        routed_counts: np.ndarray,
        reservoirs: list[EdgeReservoir],
        capacity: int,
        edge_bytes: int,
        batch_index: int,
        rebalances: list[dict],
    ) -> np.ndarray:
        """Recompute the triplet->core map when accumulated skew warrants it.

        Trigger: the coefficient of variation of accumulated per-core insert
        seconds (the ledger's cv over the same metric it reports) exceeding
        ``rebalance_cv``.  Remedy: greedily pair the heaviest-routed triplets
        with the least-loaded cores.  Each triplet's partially built sample
        migrates to its new core; the move is charged as a rank-padded
        scatter of the resident bytes plus a trace event, so rebalanced runs
        honestly pay for the shuffle.  Returns the new map, or the current
        one when the trigger did not fire or the greedy map equals it.
        """
        from ..observability.imbalance import skew_stats

        cv = skew_stats(insert_secs).cv
        if cv <= self.active_options.rebalance_cv:
            return dpu_of_triplet
        num_dpus = dpu_of_triplet.size
        ids = np.arange(num_dpus)
        heavy_first = np.lexsort((ids, -routed_counts))
        idle_first = np.lexsort((ids, insert_secs))
        new_map = np.empty(num_dpus, dtype=np.int64)
        new_map[heavy_first] = idle_first
        moved = np.nonzero(new_map != dpu_of_triplet)[0]
        if moved.size == 0:
            return dpu_of_triplet
        moved_bytes = np.zeros(num_dpus, dtype=np.int64)
        for t in moved.tolist():
            stored = min(int(reservoirs[t].seen), capacity)
            moved_bytes[new_map[t]] += stored * edge_bytes
        stats = dpus.transfer.scatter(moved_bytes)
        clock.advance("sample_creation", stats.seconds)
        dpus.trace.record(
            "sample_creation", "scatter", stats.seconds, stats.payload_bytes,
            f"rebalance after batch {batch_index}",
        )
        dpus.note_dpu_xfer(moved_bytes)
        rebalances.append(
            {
                "after_batch": int(batch_index),
                "cv": float(cv),
                "moved_triplets": int(moved.size),
                "moved_bytes": int(moved_bytes.sum()),
                "seconds": float(stats.seconds),
            }
        )
        return new_map

    def _harvest_imbalance(self, prep: "_PreparedRun"):
        """Collect the per-DPU work ledger after the count launch.

        Runs between the counting launch and ``dpus.free()`` so the
        per-launch charge ledgers still hold the counting kernel's work.
        Pure observation: reads uncharged MRAM symbols and the lifetime
        charge counters, touches neither the clock nor the trace — the
        differential parity grid pins that this call is invisible to every
        simulated number.
        """
        from ..observability.imbalance import collect_ledger

        ledger = collect_ledger(
            prep.dpus,
            prep.partitioner.table,
            edges_routed=prep.routed_counts,
            seen=prep.seen,
            capacity=prep.capacity,
            insert_seconds=prep.insert_seconds,
            remap_nodes=prep.remap_nodes,
            dpu_of_triplet=prep.dpu_of_triplet,
        )
        if ledger is not None:
            ledger.meta["partitioner"] = prep.partitioner.strategy
            ledger.meta["rebalances"] = len(prep.rebalances)
        return ledger

    def _record_sample_metrics(
        self,
        edges_input: int,
        edges_kept: int,
        routed_counts: np.ndarray,
        seen: np.ndarray,
        capacity: int,
    ) -> None:
        """Metrics of the sample-creation phase (engine-invariant inputs only).

        Everything observed here — routed counts, per-DPU seen totals, the
        reservoir capacity — is computed in the parent process and pinned by
        the executor parity tests, so the registry snapshot stays bit-
        identical across serial/thread/process engines.
        """
        tel = self.telemetry
        if not tel.enabled:
            return
        m = tel.metrics
        m.counter("host.edges_input", help="edges in the input graph").inc(
            edges_input
        )
        m.counter("host.edges_kept", help="edges surviving uniform sampling").inc(
            edges_kept
        )
        m.counter("pim.edges_routed_total", help="edge copies routed to PIM cores").inc(
            int(routed_counts.sum())
        )
        m.histogram(
            "pim.edges_routed", help="edges routed per PIM core (load balance)"
        ).observe_many(routed_counts.astype(np.float64))
        m.gauge("pim.reservoir.capacity", help="per-core reservoir capacity").set(
            capacity
        )
        occupancy = np.minimum(seen, capacity) / float(capacity)
        m.histogram(
            "pim.reservoir.occupancy",
            buckets=DEFAULT_FRACTION_BUCKETS,
            help="per-core fraction of the reservoir filled",
        ).observe_many(occupancy)

    def _record_kernel_metrics(self, aggregate: KernelAggregate) -> None:
        """Kernel-side totals (identical across engines: the charge contract)."""
        tel = self.telemetry
        if not tel.enabled:
            return
        m = tel.metrics
        m.counter("kernel.instructions", help="DPU instructions, all cores").inc(
            aggregate.instructions
        )
        m.counter("kernel.dma_requests", help="MRAM DMA requests, all cores").inc(
            aggregate.dma_requests
        )
        m.counter("kernel.dma_bytes", help="MRAM DMA bytes, all cores").inc(
            aggregate.dma_bytes
        )
        m.counter("pipeline.runs", help="completed pipeline runs").inc()

    def _mg_update(self, merged: MisraGries, src: np.ndarray, dst: np.ndarray) -> None:
        """Fold one edge chunk's node stream into ``merged`` (per-thread splits).

        The chunk's interleaved node stream is split across the model's host
        threads, each summarized locally, and merged.  Merged Misra-Gries
        summaries are not split-invariant: a chunked run can hold a different
        (still valid, still within the ``n/K`` error guarantee) summary than a
        one-chunk run.
        """
        stream = np.empty(2 * int(src.size), dtype=np.int64)
        stream[0::2] = src
        stream[1::2] = dst
        for chunk in np.array_split(stream, self.system.config.cost.host_threads):
            local = MisraGries(self.active_options.misra_gries_k)
            local.update_array(chunk)
            merged.merge(local)

    def _mg_table(self, merged: MisraGries, num_nodes: int) -> RemapTable:
        """Extract the top-t remap table from a finished summary + metrics."""
        top = merged.top(self.active_options.misra_gries_t)
        if self.telemetry.enabled:
            m = self.telemetry.metrics
            m.gauge("mg.summary_size", help="entries in the merged MG summary").set(
                merged.size
            )
            m.gauge("mg.remapped_nodes", help="top-t nodes remapped in-core").set(
                len(top)
            )
        return RemapTable(nodes=np.array(top, dtype=np.int64), num_nodes=num_nodes)

    @staticmethod
    def _aggregate(dpus) -> KernelAggregate:
        stats = [dpu.run_stats() for dpu in dpus.dpus]
        return KernelAggregate(
            instructions=sum(s.instructions for s in stats),
            dma_requests=sum(s.dma_requests for s in stats),
            dma_bytes=sum(s.dma_bytes for s in stats),
            max_dpu_compute_seconds=max((s.compute_seconds for s in stats), default=0.0),
        )
