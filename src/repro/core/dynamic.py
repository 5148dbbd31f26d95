"""Dynamic-graph triangle counting on the PIM system (paper Sec. 4.6, Fig. 7).

COO's advantage on dynamic graphs is that an update is an append: the host
routes only the *new* edges to the PIM cores, each core merges them into its
already-sorted sample, and the counting kernel processes just the new edges'
wedges.  This module drives that loop:

* :class:`DynamicPimCounter` keeps the coloring (the hash is drawn once, so
  node colors are stable across updates) and every core's resident sample.
* ``apply_update(batch)`` routes, transfers and merges the batch, charges the
  incremental kernel work (sort of the batch + one merge pass over the sample
  + per-new-edge binary search and merge intersection), and returns the new
  global count with the monochromatic correction re-applied.

The host side of a round is one pass over all cores at once, not a loop over
them.  The resident samples are one sorted int64 array of ``(core, u, v)``
record keys, in the effective (remapped) id space.  An insert sorts the
routed batch once and merges it in by binary search; a delete finds its
tombstones the same way and compacts the array once.  Every core's charge
quantities come from that one array and its one region table, and are then
charged per core exactly as a per-core kernel would incur them.

Functional counts are obtained by recounting the updated samples with the
exact sparse-algebra routine — bit-identical to what an incremental kernel
computes, with the *time* charged for the incremental work only (the recount
is a simulator implementation detail; see DESIGN.md).  All cores whose sample
changed in a round are recounted by *one* call: node ids are tagged with
their core, so the samples are disjoint blocks of one graph, and the call
returns one count per core.  A round in which no core's sample changed (no
routed edges, or only tombstones for absent edges) makes no call.  Reservoir
and uniform sampling are disabled on this path, matching the paper's dynamic
experiment which counts exactly.
"""

from __future__ import annotations

import numpy as np

from ..coloring.partition import ColoringPartitioner, EdgePartition
from ..common.errors import ConfigurationError, GraphFormatError
from ..common.rng import RngFactory
from ..graph.coo import COOGraph
from ..pimsim.config import PimSystemConfig
from ..pimsim.kernel import SimClock
from ..pimsim.system import PimSystem
from ..streaming.estimators import combine_dpu_counts
from ..streaming.misra_gries import MisraGries
from .ingest import IngestClock, iter_edge_batches
from .kernel_tc_fast import KernelCosts, _count_forward_sparse
from .orient import orient_and_sort
from .region_index import build_region_index
from .remap import RemapTable, apply_remap

__all__ = ["DynamicUpdateResult", "DynamicPimCounter"]


class DynamicUpdateResult:
    """Outcome of one dynamic update round.

    ``new_edges`` counts edges *added* by an insert round (self-loops,
    repeats and already-resident edges of the batch are not) and is 0 for
    deletions; ``removed_edges`` counts logical edges actually dropped by a
    delete round (tombstones for absent edges are not counted) and is 0 for
    inserts.
    """

    def __init__(
        self,
        round_index: int,
        new_edges: int,
        cumulative_edges: int,
        triangles_total: int,
        triangles_added: int,
        round_seconds: float,
        cumulative_seconds: float,
        op: str = "insert",
        removed_edges: int = 0,
    ) -> None:
        self.round_index = round_index
        self.new_edges = new_edges
        self.cumulative_edges = cumulative_edges
        self.triangles_total = triangles_total
        self.triangles_added = triangles_added
        self.round_seconds = round_seconds
        self.cumulative_seconds = cumulative_seconds
        self.op = op
        self.removed_edges = removed_edges

    def to_dict(self) -> dict:
        """JSON-ready view (service responses, NDJSON events, reports)."""
        return {
            "round_index": int(self.round_index),
            "op": self.op,
            "new_edges": int(self.new_edges),
            "removed_edges": int(self.removed_edges),
            "cumulative_edges": int(self.cumulative_edges),
            "triangles_total": int(self.triangles_total),
            "triangles_added": int(self.triangles_added),
            "round_seconds": float(self.round_seconds),
            "cumulative_seconds": float(self.cumulative_seconds),
        }

    def __repr__(self) -> str:
        edges = (
            f"edges={self.new_edges}"
            if self.op == "insert"
            else f"removed={self.removed_edges}"
        )
        return (
            f"DynamicUpdateResult(round={self.round_index}, op={self.op}, "
            f"{edges}, T={self.triangles_total}, "
            f"dt={self.round_seconds * 1e3:.3f}ms)"
        )


def _ceil_log2(x: np.ndarray) -> np.ndarray:
    """``ceil(log2(x))`` of positive integers, exactly: the bit length of
    ``x - 1`` (``frexp`` reads it off the float exponent, exact below 2**53)."""
    return np.frexp(np.asarray(x, dtype=np.int64) - 1)[1].astype(np.int64)


def _rank(keys: np.ndarray, kind: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(order, first)``: a sorting permutation of ``keys`` and the mask, in
    sorted order, of each distinct key's first entry.  (``np.unique`` is
    hash-based on current NumPy and many times slower than a sort.)"""
    order = np.argsort(keys, kind=kind)
    ranked = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return order, first


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each distinct key, in input order."""
    order, first = _rank(keys, kind="stable")
    mask = np.zeros(keys.size, dtype=bool)
    mask[order[first]] = True
    return mask


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary-search ``keys`` in ``sorted_keys``: ``(found mask, positions)``."""
    pos = np.searchsorted(sorted_keys, keys)
    found = pos < sorted_keys.size
    found[found] = sorted_keys[pos[found]] == keys[found]
    return found, pos


def _original_ids(table: RemapTable, ids: np.ndarray) -> np.ndarray:
    """Invert :func:`~repro.core.remap.apply_remap` on remapped node ids."""
    fresh = ids >= table.num_nodes
    out = ids.copy()
    out[fresh] = table.nodes[table.remapped_num_nodes - 1 - ids[fresh]]
    return out


class DynamicPimCounter:
    """Incremental triangle counting over a stream of COO edge batches.

    Inserts add each undirected edge at most once.  Before routing, a batch
    is canonicalized: self-loops are dropped, an edge repeated within the
    batch (in either orientation) is kept once, and edges already resident
    are dropped by looking up each edge's key on its home core.  The edges
    that remain keep their order and orientation, so a batch of fresh,
    distinct edges is routed and charged exactly as sent.  ``new_edges`` in
    the result counts only the edges added; the batch size minus
    ``new_edges`` were ignored.  Deletions are idempotent — tombstones for
    absent edges are ignored.

    Resident records are int64 keys packing ``(core, u, v)`` with ``s`` bits
    per id, ``s = (num_nodes + misra_gries_t - 1).bit_length()``, so a
    session needs ``num_dpus * 4**s < 2**63``; wider ``num_nodes`` raise
    :class:`ConfigurationError` at construction.  The largest ``num_nodes +
    misra_gries_t`` accepted is ``2**29`` at ``num_colors=4`` (20 cores),
    ``2**28`` at 8 (120 cores) and ``2**26`` at 16 (816 cores); every bundled
    dataset tier has fewer than ``2**18`` nodes.
    """

    def __init__(
        self,
        num_nodes: int,
        num_colors: int = 4,
        seed: int = 0,
        system_config: PimSystemConfig | None = None,
        kernel_costs: KernelCosts | None = None,
        misra_gries_k: int = 0,
        misra_gries_t: int = 0,
        batch_edges: int | None = None,
    ) -> None:
        if num_colors < 1:
            raise ConfigurationError("num_colors must be >= 1")
        if (misra_gries_k > 0) != (misra_gries_t > 0):
            raise ConfigurationError("misra_gries_k and misra_gries_t go together")
        if batch_edges is not None and batch_edges < 1:
            raise ConfigurationError("batch_edges must be >= 1 or None")
        #: Streaming-ingest chunk size for update batches; ``None`` makes each
        #: update batch one chunk.  Set, the chunks' host routing overlaps
        #: the cores' merges on the clock (see :mod:`repro.core.ingest`).
        self.batch_edges = batch_edges
        self.num_nodes = int(num_nodes)
        self.num_colors = int(num_colors)
        self.costs = kernel_costs or KernelCosts()
        # Misra-Gries is a streaming summary, so it extends naturally to the
        # dynamic setting: each update batch feeds it, and the current top-t
        # is re-broadcast (the remap is a bijection, counts are unaffected).
        self._mg = MisraGries(misra_gries_k) if misra_gries_k > 0 else None
        self._mg_t = int(misra_gries_t)
        self.system = PimSystem(system_config or PimSystemConfig())
        rngs = RngFactory(seed)
        self.partitioner = ColoringPartitioner(num_colors, rngs.stream("coloring"))
        if self.partitioner.num_dpus > self.system.config.total_dpus:
            raise ConfigurationError("not enough PIM cores for this color count")
        self.clock = SimClock()
        self.dpus = self.system.allocate(self.partitioner.num_dpus, self.clock)
        # Record keys pack ``(core, u, v)``, ``u < v`` effective ids, into
        # one int64: ``core << 2s | u << s | v``, with ``s`` bits covering the
        # remapped id range.
        self._bits = max(1, (self.num_nodes + self._mg_t - 1).bit_length())
        if self.partitioner.num_dpus << (2 * self._bits) > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"num_nodes={self.num_nodes} is too large for int64 record keys "
                f"at {self.partitioner.num_dpus} cores"
            )
        #: Every core's resident sample: sorted ``(core, u, v)`` record keys in
        #: the effective id space of :attr:`_order_remap`.
        self._keys = np.empty(0, dtype=np.int64)
        self._order_remap: RemapTable | None = None
        self._raw_counts = np.zeros(self.partitioner.num_dpus, dtype=np.int64)
        self._estimate = 0
        self._round = 0
        self._cumulative_edges = 0
        #: Largest routed-bytes footprint of any single update/deletion round
        #: (the service layer budgets sessions against this accounting).
        self.peak_routed_bytes = 0
        self._closed = False

    # --------------------------------------------------------------------- state
    @property
    def triangles(self) -> int:
        """Current exact triangle count of the accumulated graph."""
        return self._estimate

    @property
    def cumulative_edges(self) -> int:
        """Logical edges currently resident (inserts minus real deletions)."""
        return self._cumulative_edges

    @property
    def resident_bytes(self) -> int:
        """Bytes of sample records currently resident across all PIM cores."""
        return int(self._keys.size) * self.costs.edge_bytes

    def routed_bytes_for(self, num_edges: int) -> int:
        """Routed-byte footprint of a ``num_edges`` batch: every edge is
        replicated once per third-color choice (``C`` copies, one per
        compatible triplet core)."""
        return int(num_edges) * self.partitioner.table.edge_multiplicity() * self.costs.edge_bytes

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the PIM cores and drop resident state (idempotent).

        A long-lived service session must hand its DPUs back when it ends;
        after :meth:`close`, further updates raise ``ConfigurationError``.
        """
        if self._closed:
            return
        self._closed = True
        self.dpus.free(phase="dynamic")
        self._keys = np.empty(0, dtype=np.int64)

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("DynamicPimCounter is closed")

    @property
    def cumulative_seconds(self) -> float:
        """Total update time, excluding the one-time setup (paper convention:
        setup is excluded from every post-Sec.-4.2 comparison)."""
        return self.clock.total() - self.clock.get("setup")

    @property
    def setup_seconds(self) -> float:
        return self.clock.get("setup")

    # ------------------------------------------------------------ record keys
    def _key(self, core: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Record keys of effective-id edges ``(a, b)`` on ``core``."""
        s = self._bits
        return (core << (2 * s)) | (np.minimum(a, b) << s) | np.maximum(a, b)

    def _split(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(core, u, v)`` of record keys."""
        s = self._bits
        mask = (1 << s) - 1
        return keys >> (2 * s), (keys >> s) & mask, keys & mask

    def _effective(
        self, remap: RemapTable | None, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return apply_remap(remap, src, dst) if remap is not None else (src, dst)

    def _core_sizes(self) -> np.ndarray:
        """Resident records of each core."""
        starts = np.arange(self.partitioner.num_dpus + 1, dtype=np.int64) << (2 * self._bits)
        return np.diff(np.searchsorted(self._keys, starts))

    def _core_sample(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Core ``d``'s resident ``(u, v)`` records in original node ids."""
        s = self._bits
        lo, hi = np.searchsorted(self._keys, [d << (2 * s), (d + 1) << (2 * s)])
        u, v = self._split(self._keys[lo:hi])[1:]
        if self._order_remap is not None:
            u, v = _original_ids(self._order_remap, u), _original_ids(self._order_remap, v)
        return u, v

    @staticmethod
    def _routed_records(part: EdgePartition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(core, src, dst)`` of every record a partition routed."""
        core = np.repeat(np.arange(part.counts.size, dtype=np.int64), part.counts)
        src = np.concatenate([src for src, _ in part.per_dpu])
        dst = np.concatenate([dst for _, dst in part.per_dpu])
        return core, src, dst

    def _check_ids(self, batch: COOGraph) -> None:
        """Ids at or above ``num_nodes`` would alias remapped ids in the keys."""
        if batch.num_edges and max(int(batch.src.max()), int(batch.dst.max())) >= self.num_nodes:
            raise GraphFormatError(f"node ID out of range for num_nodes={self.num_nodes}")

    def _on_home_core(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(resident mask, key)`` of each edge's record on its home core:
        one hash and one binary search per edge, ``O(b log R)``."""
        es, ed = self._effective(self._order_remap, src, dst)
        keys = self._key(self._canonical_dpus(src, dst), es, ed)
        return _find(self._keys, keys)[0], keys

    def _reorder(self, remap: RemapTable | None) -> None:
        """Re-key the resident records under ``remap`` (one sort) when it is
        not the table their order was built under."""
        old = self._order_remap
        if old is remap or (
            old is not None and remap is not None and np.array_equal(old.nodes, remap.nodes)
        ):
            return
        core, u, v = self._split(self._keys)
        if old is not None:
            u, v = _original_ids(old, u), _original_ids(old, v)
        self._keys = np.sort(self._key(core, *self._effective(remap, u, v)))
        self._order_remap = remap

    # -------------------------------------------------------------------- update
    def _fresh_edges(self, batch: COOGraph) -> COOGraph:
        """The batch's edges that are not resident yet, each once, in order."""
        src, dst = batch.src, batch.dst
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        keep = _first_occurrences(lo * np.int64(self.num_nodes) + hi) & (lo != hi)
        keep[keep] = ~self._on_home_core(src[keep], dst[keep])[0]
        if keep.all():
            return batch
        return COOGraph(src[keep], dst[keep], batch.num_nodes)

    def _merge_and_charge(self, part: EdgePartition, remap: RemapTable | None) -> float:
        """Merge one routed chunk into the resident records and charge it.

        Charges each core the incremental kernel work (batch sort, one merge
        pass over the resident sample, per-new-edge search + intersection)
        and returns the slowest core's compute seconds for this chunk.  The
        functional recount is left to the caller, which runs it once after
        the last chunk.
        """
        costs, s = self.costs, self._bits
        b = part.counts
        old_m = self._core_sizes()
        merge_steps = np.zeros(b.size, dtype=np.int64)
        regions = np.zeros(b.size, dtype=np.int64)
        if b.any():
            core, src, dst = self._routed_records(part)
            es, ed = self._effective(remap, src, dst)
            # One sort of the chunk's records: ids tagged with their core
            # sort in (core, u, v) order.
            u, v, _ = orient_and_sort((core << s) | es, (core << s) | ed)
            new = (u << s) | (v & ((1 << s) - 1))
            self._keys = np.insert(self._keys, np.searchsorted(self._keys, new), new)
            # One region table over every core: a region is a (core, u) pair.
            index = build_region_index(self._keys >> s)
            regions = np.bincount(index.nodes >> s, minlength=b.size)
            d_v = index.degrees_of(v)
            _, ends_u = index.lookup_many(u)
            # Forward neighbors of u strictly greater than v: records are
            # (core, u, v)-sorted, so one key search finds the edge's own slot.
            suffix = np.maximum(ends_u - np.searchsorted(self._keys, new, side="right"), 0)
            steps = np.where(d_v > 0, suffix + d_v, 0)
            merge_steps = np.bincount(u >> s, weights=steps, minlength=b.size).astype(np.int64)
        merge_pass = old_m + b
        sort_steps = b * _ceil_log2(np.maximum(b, 2))
        search_steps = np.where(regions > 0, _ceil_log2(regions + 1), 1)
        remap_instr = costs.remap_instr_per_edge * merge_pass if remap is not None else 0.0
        instr = (
            remap_instr
            + costs.sort_instr_per_step * sort_steps
            + costs.insert_instr_per_edge * merge_pass
            + costs.edge_loop_instr * b
            + costs.binsearch_instr_per_step * search_steps * b
            + costs.merge_instr_per_step * merge_steps
        )
        # Merge (and remap) passes stream the sample through MRAM
        # (read + write) plus the counting phase's region reads.
        passes = 2 + (2 if remap is not None else 0)
        nbytes = (passes * merge_pass + merge_steps) * costs.edge_bytes
        return self._charge_cores(b > 0, instr, nbytes, b)

    def _charge_cores(
        self, active: np.ndarray, instr: np.ndarray, nbytes: np.ndarray, b: np.ndarray
    ) -> float:
        """Charge each ``active`` core its round's ``instr`` instructions and
        ``nbytes`` MRAM bytes (split over its tasklets, one DMA request per 8
        routed records) and return the slowest core's compute seconds."""
        seconds = 0.0
        for d, dpu in enumerate(self.dpus.dpus):
            dpu.reset_charges()
            if active[d]:
                dpu.charge_balanced(float(instr[d]))
                per = int(nbytes[d]) // dpu.config.num_tasklets
                requests = max(1, int(b[d]) // 8)
                dpu.charge_mram_read_all(per, requests=requests)
            seconds = max(seconds, dpu.compute_seconds())
        return seconds

    def _recount(self, changed: np.ndarray) -> None:
        """Recount every core in ``changed`` with one arithmetic call."""
        if not changed.any():
            return
        u, v, num_nodes, groups = self._tagged_sample(changed)
        counts = _count_forward_sparse(u, v, num_nodes, groups=groups)
        fresh = np.zeros_like(self._raw_counts)
        fresh[: counts.size] = counts
        self._raw_counts[changed] = fresh[changed]

    def _tagged_sample(
        self, changed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """The ``changed`` cores' records as one graph:
        ``(u, v, num_nodes, groups)`` for the count arithmetic.

        Node ids are tagged with their core (``core << s | id``), so the
        cores' samples are disjoint blocks of one graph, and compacted to
        their ranks among the ids that occur; ``groups`` names each compacted
        node's core.  Sorted keys give ``u``-sorted records, ties by ``v``,
        and compaction keeps that order.
        """
        s = self._bits
        keys = self._keys[changed[self._keys >> (2 * s)]]
        core_tag = (keys >> (2 * s)) << s
        tagged = np.concatenate([keys >> s, core_tag | (keys & ((1 << s) - 1))])
        order, first = _rank(tagged)
        compact = np.empty_like(tagged)
        compact[order] = np.cumsum(first) - 1
        groups = tagged[order[first]] >> s
        return compact[: keys.size], compact[keys.size :], int(first.sum()), groups

    @staticmethod
    def _endpoint_stream(batch: COOGraph) -> np.ndarray:
        """Node stream of one batch: each edge contributes both endpoints."""
        stream = np.empty(2 * batch.num_edges, dtype=np.int64)
        stream[0::2] = batch.src
        stream[1::2] = batch.dst
        return stream

    def _refresh_remap(self) -> RemapTable | None:
        """Rebuild the remap table from the current summary and broadcast it."""
        if self._mg is None:
            return None
        top = self._mg.top(self._mg_t)
        if not top:
            return None
        remap = RemapTable(nodes=np.array(top, dtype=np.int64), num_nodes=self.num_nodes)
        # Broadcast the refreshed table to every core.
        self.clock.advance(
            "dynamic", self.dpus.transfer.broadcast(remap.nbytes(), len(self.dpus)).seconds
        )
        return remap

    def _update_mg(self, batch: COOGraph) -> RemapTable | None:
        """Feed one update batch to the Misra-Gries summary; refresh the remap."""
        if self._mg is None:
            return None
        self._mg.update_array(self._endpoint_stream(batch))
        return self._refresh_remap()

    def _decay_mg(self, removed: COOGraph) -> RemapTable | None:
        """Retract the edges a deletion removed from the Misra-Gries summary.

        Without this, a hub whose edges were all deleted would stay pinned in
        the summary's top-``t`` forever and keep winning remap slots over
        nodes that are *currently* hot.  Decaying the removed endpoints (and
        re-broadcasting the refreshed table, charged like any remap refresh)
        keeps the summary tracking the live graph.  Counts are unaffected
        either way — the remap is a bijection — which the differential grid
        and the deletion oracle tests pin.
        """
        if self._mg is None:
            return None
        self._mg.decay_array(self._endpoint_stream(removed))
        return self._refresh_remap()

    def _ingest_clock(self, overlap: bool) -> IngestClock:
        return IngestClock(
            self.clock,
            "dynamic",
            overlap=overlap,
            launch_latency=self.system.config.cost.launch_latency,
        )

    def _route(
        self, ingest: IngestClock, src: np.ndarray, dst: np.ndarray
    ) -> EdgePartition:
        """Stream, hash-color and route one chunk of edges (or tombstones)
        to its cores, and scatter it."""
        cost = self.system.config.cost
        ingest.host(
            cost.host_edge_cycles * int(src.size) / (cost.host_clock_hz * cost.host_threads)
        )
        part = self.partitioner.assign_arrays(src, dst)
        routed_bytes = part.counts * self.costs.edge_bytes
        self.peak_routed_bytes = max(self.peak_routed_bytes, int(routed_bytes.sum()))
        ingest.transfer(self.dpus.transfer.scatter(routed_bytes))
        return part

    def _finish_round(
        self, before_total: float, op: str, edge_delta: int
    ) -> DynamicUpdateResult:
        """Gather counts, apply corrections, and close one update round.

        ``edge_delta`` is the signed change in resident logical edges: the
        edges added by an insert, minus the edges actually removed for a
        delete.
        """
        # Gather the per-core counts (8 bytes each).
        sizes = np.full(len(self.dpus), 8, dtype=np.int64)
        self.clock.advance("dynamic", self.dpus.transfer.gather(sizes).seconds)
        ones = np.ones(self.partitioner.num_dpus, dtype=np.float64)
        new_estimate = int(
            round(
                combine_dpu_counts(
                    self._raw_counts,
                    ones,
                    self.partitioner.mono_mask(),
                    num_colors=self.num_colors,
                )
            )
        )
        added = new_estimate - self._estimate
        self._estimate = new_estimate
        self._round += 1
        self._cumulative_edges += edge_delta
        round_seconds = self.cumulative_seconds - before_total
        return DynamicUpdateResult(
            round_index=self._round,
            new_edges=max(edge_delta, 0),
            cumulative_edges=self._cumulative_edges,
            triangles_total=new_estimate,
            triangles_added=added,
            round_seconds=round_seconds,
            cumulative_seconds=self.cumulative_seconds,
            op=op,
            removed_edges=max(-edge_delta, 0),
        )

    def apply_update(self, batch: COOGraph) -> DynamicUpdateResult:
        """Merge one batch of new edges and recount incrementally.

        One ingest loop (see :mod:`repro.core.ingest`): the update is one
        chunk, or chunks of ``batch_edges`` edges whose host routing overlaps
        the cores merging the previous chunk on the clock.  Per-core merged
        samples do not depend on the chunking (records are kept sorted), so
        the count matches exactly.  The Misra-Gries summary takes the whole
        update once its first chunk is on the bus, and the changed cores are
        recounted together, once, after the last chunk.
        """
        self._check_open()
        self._check_ids(batch)
        batch = self._fresh_edges(batch)
        before_total = self.cumulative_seconds
        ingest = self._ingest_clock(overlap=self.batch_edges is not None)
        remap = None
        changed = np.zeros(self.partitioner.num_dpus, dtype=bool)
        for k, s_chunk, d_chunk in iter_edge_batches(batch.src, batch.dst, self.batch_edges):
            part = self._route(ingest, s_chunk, d_chunk)
            if k == 0:
                remap = self._update_mg(batch)
                self._reorder(remap)
            chunk = ingest.dispatch()
            ingest.close(chunk, self._merge_and_charge(part, remap))
            changed |= part.counts > 0
        if ingest.chunks == 0:
            # An empty chunked update streams no chunk; the summary still
            # sees it (and re-broadcasts its table).
            self._update_mg(batch)
        self._recount(changed)
        return self._finish_round(before_total, "insert", batch.num_edges)

    # ------------------------------------------------------------------ delete
    def _canonical_dpus(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Each edge's designated home core: the third-color-0 triplet.

        Every edge is replicated once per third-color choice — the partition
        routes ``edge_multiplicity() == C`` copies to ``C`` distinct triplet
        cores — and the triplet LUT is symmetric in its first two arguments,
        so ``lut[cu, cv, 0]`` names the *same* core for every replica of an
        undirected edge.  Counting removals only on that core counts each
        logical edge exactly once, with no division by a replication factor.
        """
        cu = self.partitioner.node_colors(src)
        cv = self.partitioner.node_colors(dst)
        return self.partitioner.table.lut[cu, cv, np.int64(0)]

    def apply_deletion(self, batch: COOGraph) -> DynamicUpdateResult:
        """Remove a batch of edges (fully-dynamic streams, TRIEST-FD style).

        COO makes deletions as cheap as insertions for the PIM layout: the
        hash coloring is stable, so an edge's ``C`` copies live on exactly the
        cores its colors name — the host routes the *tombstones* the same way
        it routes insertions, and each core drops the matching records with
        one binary search plus a compaction pass.  Edges not present are
        ignored (idempotent deletes).
        """
        self._check_open()
        self._check_ids(batch)
        before_total = self.cumulative_seconds
        ingest = self._ingest_clock(overlap=False)
        part = self._route(ingest, batch.src, batch.dst)

        b = part.counts
        m = self._core_sizes()
        changed = np.zeros(b.size, dtype=bool)
        removed = np.empty(0, dtype=np.int64)
        if b.any() and self._keys.size:
            # A record's replicas live on C cores; count each logical removal
            # once, on the edge's home core, rather than dividing a
            # physical-replica tally by an assumed factor.
            resident, home_keys = self._on_home_core(batch.src, batch.dst)
            removed = np.flatnonzero(resident)[_first_occurrences(home_keys[resident])]
        # Deletions change which nodes are hot: retract the removed edges
        # from the Misra-Gries summary so stale hubs don't stay pinned in the
        # remap.  Tombstones for absent edges (and repeats) retract nothing.
        self._decay_mg(COOGraph(batch.src[removed], batch.dst[removed], batch.num_nodes))
        removed_edges = int(removed.size)
        if removed_edges:
            core, src, dst = self._routed_records(part)
            es, ed = self._effective(self._order_remap, src, dst)
            found, pos = _find(self._keys, self._key(core, es, ed))
            changed[core[found]] = True
            self._keys = np.delete(self._keys, pos[found])
        # Tombstone search + one compaction pass over the sample.
        instr = (
            self.costs.binsearch_instr_per_step * _ceil_log2(m + 1) * b
            + self.costs.insert_instr_per_edge * m
        )
        nbytes = 2 * m * self.costs.edge_bytes
        seconds = self._charge_cores((b > 0) & (m > 0), instr, nbytes, b)
        ingest.close(ingest.dispatch(), seconds)
        self._recount(changed)
        return self._finish_round(before_total, "delete", -removed_edges)
