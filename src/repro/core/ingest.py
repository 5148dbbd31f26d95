"""Streaming ingestion: chunk iteration and the chunk-to-clock accounting.

The paper's host streams the COO file and routes edges to the PIM cores as it
reads them (Sec. 3.1-3.3); DOULION-style uniform sampling, the Misra-Gries
summary and TRIEST-style reservoir insertion are all one-pass streaming
schemes.  Sample creation (:mod:`repro.core.host`) and dynamic updates
(:mod:`repro.core.dynamic`) therefore run one ingest loop over chunks of the
edge stream: the whole stream as one chunk when ``batch_edges`` is ``None``,
otherwise chunks of ``batch_edges`` edges, which bounds the host's
routed-buffer memory at ``O(batch_edges * C)`` instead of ``O(|E| * C)``.

The two modes differ in one decision, made by :class:`IngestClock`: how a
chunk's host and device seconds reach the simulated clock.  One chunk: each
cost advances the clock by itself, in call order.  Chunked: while the DPUs
insert batch ``k`` (scatter + reservoir merge), the host routes batch
``k + 1``, which :class:`DoubleBufferSchedule` models.  With host-route
seconds ``h_k`` and device (transfer + insert) seconds ``d_k`` per batch, the
classic two-buffer recurrence is::

    start_h(k) = max(H(k-1), D(k-2))      # buffer k-2 must be drained
    H(k)       = start_h(k) + h_k         # host finishes routing batch k
    D(k)       = max(H(k), D(k-1)) + d_k  # device finishes inserting batch k

so the elapsed time is ``D(K-1)`` — per steady-state step, ``max(h, d)``
rather than ``h + d``.  The schedule hands back per-batch *deltas*
``D(k) - D(k-1)`` (always non-negative), which the clock advances inside one
telemetry span per batch.

The model is engine-invariant: ``h_k`` and ``d_k`` are computed from the
same deterministic quantities under the serial, thread, and process
executors, so both modes keep the bit-identical-counts-and-clocks contract
of :mod:`repro.pimsim.executor`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..common.errors import ConfigurationError

if TYPE_CHECKING:
    from ..pimsim.kernel import SimClock
    from ..pimsim.trace import Trace
    from ..pimsim.transfer import TransferStats
    from ..telemetry.spans import SpanRecord, Telemetry

__all__ = ["DoubleBufferSchedule", "IngestClock", "iter_edge_batches", "num_batches"]


def num_batches(num_edges: int, batch_edges: int) -> int:
    """How many chunks a stream of ``num_edges`` splits into."""
    if batch_edges < 1:
        raise ConfigurationError(f"batch_edges must be >= 1, got {batch_edges}")
    return -(-int(num_edges) // int(batch_edges))


def iter_edge_batches(
    src: np.ndarray, dst: np.ndarray, batch_edges: int | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(batch_index, src_chunk, dst_chunk)`` views over an edge stream.

    Views, not copies: the chunks alias the input arrays, so iterating adds
    no memory beyond the caller's stream.  ``batch_edges=None`` yields the
    whole stream as one chunk, even when it is empty; otherwise an empty
    stream yields nothing.
    """
    if batch_edges is None:
        yield 0, src, dst
        return
    if batch_edges < 1:
        raise ConfigurationError(f"batch_edges must be >= 1, got {batch_edges}")
    m = int(src.size)
    for k, start in enumerate(range(0, m, int(batch_edges))):
        stop = min(start + int(batch_edges), m)
        yield k, src[start:stop], dst[start:stop]


@dataclass
class DoubleBufferSchedule:
    """Simulated-time ledger of the two-stage (host route / device insert)
    pipeline with double buffering.

    Call :meth:`step` once per batch in stream order with that batch's host
    and device seconds; it returns the batch's contribution to the critical
    path (the growth of the device-finish front).  The sum of the deltas is
    :attr:`elapsed`; :attr:`serial_seconds` accumulates the unoverlapped
    ``sum(h) + sum(d)`` so callers can report how much the overlap saved.
    """

    _host_finish: float = field(default=0.0, init=False)
    _device_finish: float = field(default=0.0, init=False)
    _device_finish_prev: float = field(default=0.0, init=False)
    batches: int = field(default=0, init=False)
    serial_seconds: float = field(default=0.0, init=False)

    def step(self, host_seconds: float, device_seconds: float) -> float:
        """Advance by one batch; returns ``D(k) - D(k-1)`` (>= 0)."""
        if host_seconds < 0 or device_seconds < 0:
            raise ConfigurationError("batch phase seconds must be non-negative")
        start_h = max(self._host_finish, self._device_finish_prev)
        host_done = start_h + host_seconds
        device_done = max(host_done, self._device_finish) + device_seconds
        delta = device_done - self._device_finish
        self._device_finish_prev = self._device_finish
        self._device_finish = device_done
        self._host_finish = host_done
        self.batches += 1
        self.serial_seconds += host_seconds + device_seconds
        return delta

    @property
    def elapsed(self) -> float:
        """Pipelined end-to-end seconds so far (``D`` of the last batch)."""
        return self._device_finish

    @property
    def saved_seconds(self) -> float:
        """Seconds the overlap hid relative to fully serial execution."""
        return max(0.0, self.serial_seconds - self._device_finish)


@dataclass
class ChunkCosts:
    """Host and transfer costs of one chunk, gathered until its insert."""

    index: int
    host_seconds: float = 0.0
    xfer_seconds: float = 0.0
    xfer_bytes: int = 0


class IngestClock:
    """How an ingest chunk's host and device seconds reach the simulated clock.

    The ingest loop reports a chunk's costs — :meth:`host` for streaming,
    sampling, summarizing and routing, :meth:`transfer` per scatter round —
    then :meth:`dispatch` hands the chunk to the cores and :meth:`close`
    charges its insert launch.  With ``overlap=False`` each cost advances
    the clock by itself, in call order, and each transfer round and insert
    launch is one trace event.  With ``overlap=True`` a chunk's host and
    device seconds go through :class:`DoubleBufferSchedule` when it closes,
    inside a ``batch[k]`` span, as one scatter and one launch event; the
    next chunk's costs may arrive before the previous chunk closes.
    ``trace`` and ``telemetry`` are optional (dynamic updates keep neither).
    """

    def __init__(
        self,
        clock: "SimClock",
        phase: str,
        *,
        overlap: bool,
        launch_latency: float,
        trace: "Trace | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.clock, self.phase = clock, phase
        self.launch_latency = launch_latency
        self.trace, self.telemetry = trace, telemetry
        #: The double-buffer ledger, or ``None`` for the one-chunk mode.
        self.schedule = DoubleBufferSchedule() if overlap else None
        self._open = ChunkCosts(0)

    @property
    def overlapped(self) -> bool:
        return self.schedule is not None

    @property
    def chunks(self) -> int:
        """Chunks dispatched so far."""
        return self._open.index

    def _span(self, name: str):
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.span(name, clock=self.clock)

    def _record(self, kind: str, seconds: float, nbytes: int, detail: str) -> None:
        if self.trace is not None:
            self.trace.record(self.phase, kind, seconds, nbytes, detail)

    def stage(self, name: str):
        """Span around one step of the open chunk.  Only the one-chunk mode
        opens it: an overlapped chunk's steps hold no simulated time."""
        return nullcontext() if self.overlapped else self._span(name)

    def host(self, seconds: float) -> None:
        """Host work on the open chunk (stream, sample, summarize, route)."""
        if self.overlapped:
            self._open.host_seconds += seconds
        else:
            self.clock.advance(self.phase, seconds)

    def transfer(self, stats: "TransferStats", detail: str = "") -> None:
        """One host->core scatter round of the open chunk."""
        if self.overlapped:
            self._open.xfer_seconds += stats.seconds
            self._open.xfer_bytes += stats.payload_bytes
        else:
            self.clock.advance(self.phase, stats.seconds)
            self._record("scatter", stats.seconds, stats.payload_bytes, detail)

    def dispatch(self) -> ChunkCosts:
        """Hand the open chunk to the cores; its costs wait for :meth:`close`."""
        chunk, self._open = self._open, ChunkCosts(self._open.index + 1)
        return chunk

    def close(
        self,
        chunk: ChunkCosts,
        compute: float,
        records: "list[SpanRecord] | None" = None,
    ) -> None:
        """Charge the chunk's insert launch: the launch latency plus the
        slowest core's ``compute`` seconds.  ``records`` (per-core detail
        spans) hang under the span the launch is charged in."""
        launch = self.launch_latency + compute
        if not self.overlapped:
            with self._span("insert"):
                self.clock.advance(self.phase, launch)
                self._record("launch", launch, 0, "sample insert / reservoir")
                if records:
                    self.telemetry.attach_records(records)
            return
        k = chunk.index
        d_k = chunk.xfer_seconds + self.launch_latency + compute
        with self._span(f"batch[{k}]") as span:
            self.clock.advance(self.phase, self.schedule.step(chunk.host_seconds, d_k))
            if span is not None:
                span.attrs["host_seconds"] = chunk.host_seconds
                span.attrs["device_seconds"] = d_k
                span.attrs["routed_bytes"] = chunk.xfer_bytes
            if records:
                self.telemetry.attach_records(records)
        self._record("scatter", chunk.xfer_seconds, chunk.xfer_bytes, f"ingest batch {k}")
        self._record("launch", launch, 0, f"reservoir insert batch {k}")
