"""One named graph session of the triangle-counting service.

A :class:`GraphSession` owns a private :class:`~repro.core.dynamic.DynamicPimCounter`
(its own simulated PIM machine, coloring, and resident samples) plus the
machinery that makes it safe to drive from many concurrent connections:

* a bounded **edge-batch queue** — submissions beyond ``max_queue_depth``
  are rejected with ``backpressure`` instead of buffering unboundedly;
* an **admission check** run before a batch is queued: an insert whose
  routed footprint (``C`` replicas per edge, priced by the cost model's
  ``edge_bytes`` — the same accounting behind ``peak_routed_bytes``) would
  push the session past its ``memory_budget_bytes`` is rejected with
  ``budget_exceeded`` while already-accepted work proceeds untouched;
* a single **worker task** that applies queued batches in arrival order via
  ``asyncio.to_thread`` — per-session ordering is total, so the final count
  is bit-identical to a standalone counter replaying the same batches, while
  different sessions make progress concurrently;
* an optional **NDJSON event stream** (``run_start`` / per-batch
  ``heartbeat`` / ``estimate`` / terminal ``run_end``) in the exact schema
  of ``repro-count --log-json``, so ``repro-watch`` can tail a live session
  and ``repro-validate --require-complete`` can audit a finished one.

Counts requested through :meth:`count` travel through the same queue as the
edge batches, so a count observes every batch accepted before it — the
service's only ordering guarantee, and the one the tests pin.

**Observability plane.**  Each session carries its own
:class:`~repro.telemetry.spans.Telemetry`: every request becomes a span pair
(``queue_wait`` then ``execute``, wall clock plus the simulated seconds the
batch charged), its latency lands in per-op histograms, and admission
rejections increment counters keyed by protocol error code.  All of it is
observation-only — recorded *around* the counter, never inside it — so
counts and simulated clocks are bit-identical with the plane on or off
(``observability=False``), pinned by the differential parity test.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

import numpy as np

from ..common.errors import ConfigurationError
from ..core.dynamic import DynamicPimCounter
from ..graph.coo import COOGraph
from ..observability.logjson import NdjsonLogger
from ..telemetry.metrics import DEFAULT_LATENCY_BUCKETS
from ..telemetry.spans import SpanRecord, Telemetry

__all__ = ["GraphSession", "SessionError"]

#: Rolling window of per-request span pairs a session keeps in its tree
#: (histograms keep the full history; the tree is for recent-request drill-in).
MAX_TRACE_SPANS = 256

#: Error codes a session itself can reject with (subset of ERROR_CODES).
_SESSION_REJECT_CODES = (
    "backpressure", "budget_exceeded", "internal_error", "session_closed",
)


class SessionError(Exception):
    """Application-level rejection carrying a stable protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


_CLOSE = object()  # queue sentinel: drain and stop the worker


class GraphSession:
    """A named, long-lived triangle-counting session."""

    def __init__(
        self,
        name: str,
        num_nodes: int,
        *,
        num_colors: int = 4,
        seed: int = 0,
        misra_gries_k: int = 0,
        misra_gries_t: int = 0,
        batch_edges: int | None = None,
        memory_budget_bytes: int | None = None,
        max_queue_depth: int = 8,
        event_log: str | None = None,
        observability: bool = True,
    ) -> None:
        # asyncio.Queue treats maxsize <= 0 as unbounded: no backpressure.
        if max_queue_depth < 1:
            raise ConfigurationError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.name = name
        self.observability = bool(observability)
        self.telemetry = Telemetry(enabled=self.observability)
        if self.observability:
            metrics = self.telemetry.metrics
            for op in ("insert", "delete", "count"):
                metrics.counter(f"session.ops.{op}", help="requests executed")
                metrics.histogram(
                    f"session.op_latency_seconds.{op}",
                    buckets=DEFAULT_LATENCY_BUCKETS,
                    help="wall-clock execute time per request",
                    volatile=True,
                )
                metrics.histogram(
                    f"session.op_sim_seconds.{op}",
                    buckets=DEFAULT_LATENCY_BUCKETS,
                    help="simulated seconds charged per request",
                )
            metrics.histogram(
                "session.queue_wait_seconds",
                buckets=DEFAULT_LATENCY_BUCKETS,
                help="wall-clock time a request waited in the session queue",
                volatile=True,
            )
            for code in _SESSION_REJECT_CODES:
                metrics.counter(
                    f"session.rejections.{code}",
                    help="requests this session rejected with this error code",
                )
            metrics.gauge("session.queue_depth", help="pending queued requests")
            metrics.gauge(
                "session.resident_bytes", help="resident sample-set footprint"
            )
        self.counter = DynamicPimCounter(
            num_nodes,
            num_colors=num_colors,
            seed=seed,
            misra_gries_k=misra_gries_k,
            misra_gries_t=misra_gries_t,
            batch_edges=batch_edges,
        )
        self.memory_budget_bytes = (
            None if memory_budget_bytes is None else int(memory_budget_bytes)
        )
        self.max_queue_depth = int(max_queue_depth)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_queue_depth)
        self._worker: asyncio.Task | None = None
        self._closing = False
        self._worker_error: BaseException | None = None
        #: Insert edges accepted but not yet applied (admission accounting).
        self._pending_insert_edges = 0
        self.batches_applied = 0
        self.edges_inserted = 0
        self.edges_removed = 0
        self.created_at = time.time()
        self.last_active = time.monotonic()
        self.logger = NdjsonLogger(event_log) if event_log else None
        if self.logger is not None:
            self.logger.event(
                "run_start",
                graph=name,
                num_nodes=int(num_nodes),
                num_edges=0,
                colors=int(num_colors),
                seed=int(seed),
            )

    # ----------------------------------------------------------------- worker
    def start(self) -> None:
        """Start the session's worker task (requires a running event loop)."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name=f"session:{self.name}"
            )

    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _CLOSE:
                break
            kind, payload, future, trace_id, enqueued_at = item
            queue_wait = time.perf_counter() - enqueued_at
            sim_before = self.counter.cumulative_seconds
            exec_start = time.perf_counter()
            try:
                if kind == "count":
                    result = self._count_now()
                else:
                    result = await asyncio.to_thread(self._apply, kind, payload)
            except BaseException as exc:  # resolve the waiter, then record
                self._worker_error = exc
                if not future.done():
                    future.set_exception(
                        SessionError("internal_error", f"{type(exc).__name__}: {exc}")
                    )
                if self.logger is not None:
                    self.logger.event(
                        "run_end", status="error", error=f"{type(exc).__name__}: {exc}"
                    )
                    self.logger.close()
                break
            timing = self._observe_request(
                kind,
                trace_id,
                queue_wait=queue_wait,
                exec_wall=time.perf_counter() - exec_start,
                sim_delta=self.counter.cumulative_seconds - sim_before,
            )
            self._emit_event(kind, result, trace_id, timing)
            if timing is not None:
                result = {**result, "timing": timing}
            if not future.done():
                future.set_result(result)

    def _observe_request(
        self,
        kind: str,
        trace_id: str | None,
        *,
        queue_wait: float,
        exec_wall: float,
        sim_delta: float,
    ) -> dict[str, float] | None:
        """Record one request's span pair + latency samples (no-op when off)."""
        if not self.observability:
            return None
        metrics = self.telemetry.metrics
        metrics.counter(f"session.ops.{kind}").inc()
        metrics.histogram(
            "session.queue_wait_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        ).observe(queue_wait)
        metrics.histogram(
            f"session.op_latency_seconds.{kind}", buckets=DEFAULT_LATENCY_BUCKETS
        ).observe(exec_wall)
        metrics.histogram(
            f"session.op_sim_seconds.{kind}", buckets=DEFAULT_LATENCY_BUCKETS
        ).observe(sim_delta)
        metrics.gauge("session.queue_depth").set(self._queue.qsize())
        metrics.gauge("session.resident_bytes").set(self.counter.resident_bytes)
        attrs = {"op": kind}
        if trace_id:
            attrs["trace_id"] = trace_id
        self.telemetry.attach_records([
            SpanRecord("queue_wait", wall_seconds=queue_wait, attrs=attrs),
            SpanRecord(
                "execute",
                wall_seconds=exec_wall,
                sim_seconds=sim_delta,
                attrs=attrs,
            ),
        ])
        self.telemetry.prune(2 * MAX_TRACE_SPANS)
        return {
            "queue_wait_seconds": float(queue_wait),
            "execute_wall_seconds": float(exec_wall),
            "execute_sim_seconds": float(sim_delta),
        }

    def _emit_event(
        self,
        kind: str,
        result: dict[str, Any],
        trace_id: str | None,
        timing: dict[str, float] | None,
    ) -> None:
        """Write the request's NDJSON event (heartbeat for batches, estimate
        for counts), stamped with the trace id and latency when the
        observability plane is on — extra keys only, never changed ones."""
        if self.logger is None:
            return
        extra: dict[str, Any] = {}
        if self.observability:
            if trace_id:
                extra["trace_id"] = trace_id
            if timing is not None:
                extra["queue_wait_seconds"] = timing["queue_wait_seconds"]
                extra["execute_wall_seconds"] = timing["execute_wall_seconds"]
        if kind == "count":
            self.logger.event("estimate", estimate=float(result["triangles"]), **extra)
            return
        pending = self._queue.qsize()
        cumulative = float(result["cumulative_seconds"])
        rounds = max(1, int(result["round_index"]))
        self.logger.event(
            "heartbeat",
            batch=self.batches_applied - 1,
            batches_total=self.batches_applied + pending,
            edges_streamed=int(self.edges_inserted),
            edges_total=int(self.edges_inserted),
            peak_routed_bytes=int(self.counter.peak_routed_bytes),
            sim_elapsed_seconds=cumulative,
            eta_sim_seconds=float(pending * cumulative / rounds),
            **extra,
        )

    def _apply(self, kind: str, batch: COOGraph) -> dict[str, Any]:
        """Apply one batch on the worker thread; returns the round's view."""
        if kind == "insert":
            update = self.counter.apply_update(batch)
            self.edges_inserted += batch.num_edges
            self._pending_insert_edges -= batch.num_edges
        else:
            update = self.counter.apply_deletion(batch)
            self.edges_removed += update.removed_edges
        self.batches_applied += 1
        self.last_active = time.monotonic()
        return update.to_dict()

    def _count_now(self) -> dict[str, Any]:
        view = {
            "triangles": int(self.counter.triangles),
            "cumulative_edges": int(self.counter.cumulative_edges),
            "rounds": int(self.batches_applied),
            "sim_seconds": float(self.counter.cumulative_seconds),
        }
        self.last_active = time.monotonic()
        return view

    # -------------------------------------------------------------- admission
    def _reject(self, code: str, message: str) -> SessionError:
        """Count (when observing) and build one admission rejection."""
        if self.observability:
            self.telemetry.metrics.counter(f"session.rejections.{code}").inc()
        return SessionError(code, message)

    def _check_admission(self, kind: str, num_edges: int) -> None:
        if self._closing or self.counter.closed:
            raise self._reject(
                "session_closed", f"session {self.name!r} is closing"
            )
        if self._worker_error is not None:
            raise self._reject(
                "internal_error", f"session {self.name!r} worker died: "
                f"{type(self._worker_error).__name__}: {self._worker_error}"
            )
        if kind == "insert" and self.memory_budget_bytes is not None:
            projected = self.counter.resident_bytes + self.counter.routed_bytes_for(
                self._pending_insert_edges + num_edges
            )
            if projected > self.memory_budget_bytes:
                raise self._reject(
                    "budget_exceeded",
                    f"insert of {num_edges} edges would put session "
                    f"{self.name!r} at {projected} routed+resident bytes "
                    f"(budget {self.memory_budget_bytes})",
                )

    def _enqueue(
        self, kind: str, payload: Any, trace_id: str | None
    ) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(
                (kind, payload, future, trace_id, time.perf_counter())
            )
        except asyncio.QueueFull:
            raise self._reject(
                "backpressure",
                f"session {self.name!r} queue is full "
                f"({self.max_queue_depth} pending); retry later",
            ) from None
        return future

    # ------------------------------------------------------------- public ops
    async def submit(
        self,
        kind: str,
        src: np.ndarray,
        dst: np.ndarray,
        trace_id: str | None = None,
    ) -> dict:
        """Queue one edge batch (``kind`` is ``insert`` or ``delete``)."""
        batch = COOGraph(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            self.counter.num_nodes,
            name=f"{self.name}:batch",
        )
        self._check_admission(kind, batch.num_edges)
        future = self._enqueue(kind, batch, trace_id)
        if kind == "insert":
            self._pending_insert_edges += batch.num_edges
        return await future

    async def count(self, trace_id: str | None = None) -> dict:
        """Exact triangle count after every batch accepted before this call."""
        self._check_admission("count", 0)
        return await self._enqueue("count", None, trace_id)

    def stats(self) -> dict:
        """Accounting snapshot (admission state, budgets, simulated time)."""
        return {
            "session": self.name,
            "num_nodes": int(self.counter.num_nodes),
            "num_colors": int(self.counter.num_colors),
            "num_dpus": int(self.counter.partitioner.num_dpus),
            "rounds": int(self.batches_applied),
            "pending": int(self._queue.qsize()),
            "max_queue_depth": self.max_queue_depth,
            "edges_inserted": int(self.edges_inserted),
            "edges_removed": int(self.edges_removed),
            "cumulative_edges": int(self.counter.cumulative_edges),
            "resident_bytes": int(self.counter.resident_bytes),
            "peak_routed_bytes": int(self.counter.peak_routed_bytes),
            "memory_budget_bytes": self.memory_budget_bytes,
            "sim_seconds": float(self.counter.cumulative_seconds),
            "created_at": self.created_at,
            "idle_seconds": max(0.0, time.monotonic() - self.last_active),
            "closed": bool(self._closing or self.counter.closed),
        }

    @property
    def event_log_path(self) -> str | None:
        return None if self.logger is None else self.logger.path

    async def close(self) -> dict:
        """Drain pending work, free the DPU state, finish the event stream."""
        if not self._closing:
            self._closing = True
            while self._worker is not None and not self._worker.done():
                try:
                    self._queue.put_nowait(_CLOSE)
                    break
                except asyncio.QueueFull:
                    # Worker is draining a full queue; yield until a slot opens.
                    await asyncio.sleep(0.01)
            if self._worker is not None:
                await self._worker
            # A crashed worker leaves queued futures unresolved; fail them so
            # no submitter hangs on a session that will never apply its batch.
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not _CLOSE and not item[2].done():
                    item[2].set_exception(
                        SessionError(
                            "session_closed",
                            f"session {self.name!r} closed before this batch ran",
                        )
                    )
            final = int(self.counter.triangles)
            if not self.counter.closed:
                self.counter.close()
            if self.logger is not None:
                # No-op if the crash path already wrote its error run_end.
                self.logger.event("run_end", status="ok", estimate=float(final))
                self.logger.close()
        return {"session": self.name, "triangles": int(self.counter.triangles)}
