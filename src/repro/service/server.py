"""``repro-serve`` — the multi-session triangle-counting service.

A stdlib-``asyncio`` TCP server hosting many named
:class:`~repro.service.session.GraphSession`\\ s, each with its own simulated
PIM machine.  The server is the production consumer the ROADMAP's
"millions of users" direction asks for: concurrent clients open sessions,
stream insert/delete edge batches, and query exact counts, while the
admission layer keeps the host honest:

* ``max_sessions`` caps concurrent sessions (``admission_rejected``);
* each session's queue depth bounds buffered batches (``backpressure``);
* per-session memory budgets priced with the ``peak_routed_bytes``
  accounting reject oversized inserts (``budget_exceeded``);
* idle sessions past ``idle_timeout`` are reaped, freeing their DPU state —
  the same graceful path as an explicit ``close``.

With ``--event-dir``, every session writes a join-complete NDJSON stream
(``<dir>/<session>.ndjson``) in the ``repro-count --log-json`` schema, so a
live session can be tailed with ``repro-watch <dir>/<name>.ndjson --follow``
and audited afterwards with ``repro-validate --require-complete``.

Usage::

    repro-serve --port 7707 --max-sessions 16 --event-dir events/
    repro-serve --port 0 --ready-file addr.txt   # ephemeral port for CI
"""

from __future__ import annotations

import argparse
import asyncio
import os
import re
import signal
import sys
import time
from dataclasses import dataclass

from ..common.errors import ConfigurationError, GraphFormatError
from ..observability.promtext import SERVICE_METRICS_SCHEMA, write_snapshot
from ..telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    quantile_from_snapshot,
)
from .protocol import (
    CLIENT_ERROR_CODES,
    ERROR_CODES,
    ProtocolError,
    read_frame,
    write_frame,
)
from .session import GraphSession, SessionError

__all__ = ["ServiceConfig", "TriangleService", "main"]

_SESSION_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


@dataclass
class ServiceConfig:
    """Server-wide knobs (per-session limits are applied at ``open``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in `TriangleService.port`
    max_sessions: int = 8
    max_queue_depth: int = 8
    #: Default per-session memory budget; ``None`` = unbudgeted unless the
    #: ``open`` request names one.
    memory_budget_bytes: int | None = None
    #: Sessions idle longer than this many seconds are closed by the reaper;
    #: ``None`` disables expiry.
    idle_timeout: float | None = None
    #: Directory for per-session NDJSON event streams; ``None`` disables them.
    event_dir: str | None = None
    #: ``False`` turns the observability plane off: no trace stamping into
    #: events, no metrics, no per-request timing — the parity baseline.
    observability: bool = True
    #: Write the metrics snapshot here on shutdown (and every
    #: ``metrics_interval`` seconds while serving).  ``.prom``/``.txt`` get
    #: Prometheus text format, anything else the JSON snapshot.
    metrics_out: str | None = None
    metrics_interval: float | None = None


class TriangleService:
    """Session registry + asyncio TCP front end."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.sessions: dict[str, GraphSession] = {}
        self.port: int | None = None
        self.started_at = time.time()
        self.sessions_opened = 0
        self.sessions_expired = 0
        self._server: asyncio.base_events.Server | None = None
        self._reaper: asyncio.Task | None = None
        self._metrics_writer: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self.metrics = MetricsRegistry()
        if self.config.observability:
            for code in ERROR_CODES:
                if code in CLIENT_ERROR_CODES:
                    continue  # the server never answers a dead connection
                self.metrics.counter(
                    f"service.rejections.{code}",
                    help="requests answered with this protocol error code",
                )
            self.metrics.gauge(
                "service.sessions_open", help="sessions currently registered"
            )
            self.metrics.counter("service.sessions_opened", help="sessions opened")
            self.metrics.counter(
                "service.sessions_expired", help="sessions reaped by idle expiry"
            )

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self.config.event_dir:
            os.makedirs(self.config.event_dir, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.idle_timeout is not None:
            self._reaper = asyncio.get_running_loop().create_task(
                self._reap_idle(), name="session-reaper"
            )
        if self.config.metrics_out and self.config.metrics_interval:
            self._metrics_writer = asyncio.get_running_loop().create_task(
                self._write_metrics_periodically(), name="metrics-writer"
            )

    async def _write_metrics_periodically(self) -> None:
        interval = max(0.05, float(self.config.metrics_interval))
        while True:
            await asyncio.sleep(interval)
            self.write_metrics()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, then close every session."""
        if self._metrics_writer is not None:
            self._metrics_writer.cancel()
            try:
                await self._metrics_writer
            except asyncio.CancelledError:
                pass
            self._metrics_writer = None
        # Final snapshot while sessions are still registered, so the written
        # document carries their per-session blocks.
        self.write_metrics()
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        for name in list(self.sessions):
            session = self.sessions.pop(name)
            await session.close()

    async def _reap_idle(self) -> None:
        timeout = float(self.config.idle_timeout)
        interval = max(0.05, min(0.5, timeout / 4))
        while True:
            await asyncio.sleep(interval)
            for name, session in list(self.sessions.items()):
                if session.stats()["idle_seconds"] > timeout:
                    self.sessions.pop(name, None)
                    self.sessions_expired += 1
                    if self.config.observability:
                        self.metrics.counter("service.sessions_expired").inc()
                        self.metrics.gauge("service.sessions_open").set(
                            len(self.sessions)
                        )
                    await session.close()

    # ----------------------------------------------------------------- clients
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    await write_frame(
                        writer,
                        {"ok": False, "error": "invalid_request", "message": str(exc)},
                    )
                    break
                if request is None:
                    break
                await write_frame(writer, await self._dispatch(request))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        start = time.perf_counter()
        op = request.get("op")
        response = await self._dispatch_inner(op, request)
        if self.config.observability:
            self._observe_response(op, response, time.perf_counter() - start)
        trace_id = request.get("trace_id")
        if isinstance(trace_id, str):
            # Echo verbatim — on the error path too, so a rejected request
            # still joins against the client's log line.
            response["trace_id"] = trace_id
        return response

    async def _dispatch_inner(self, op, request: dict) -> dict:
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None or (isinstance(op, str) and op.startswith("_")):
            return {
                "ok": False,
                "error": "invalid_request",
                "message": f"unknown op {op!r}",
            }
        try:
            result = await handler(request)
        except SessionError as exc:
            return {"ok": False, "error": exc.code, "message": exc.message}
        except (ConfigurationError, GraphFormatError, ValueError, TypeError) as exc:
            return {"ok": False, "error": "invalid_request", "message": str(exc)}
        except Exception as exc:  # keep the server alive on handler bugs
            return {
                "ok": False,
                "error": "internal_error",
                "message": f"{type(exc).__name__}: {exc}",
            }
        result.setdefault("ok", True)
        return result

    def _observe_response(self, op, response: dict, elapsed: float) -> None:
        """Per-request server-side accounting (strictly observation-only)."""
        name = op if isinstance(op, str) and hasattr(self, f"_op_{op}") else "invalid"
        self.metrics.counter(
            f"service.requests.{name}", help="requests dispatched for this op"
        ).inc()
        self.metrics.histogram(
            f"service.op_latency_seconds.{name}",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help="wall-clock dispatch latency for this op",
            volatile=True,
        ).observe(elapsed)
        if not response.get("ok"):
            code = response.get("error", "internal_error")
            self.metrics.counter(f"service.rejections.{code}").inc()

    def _session(self, request: dict) -> GraphSession:
        name = request.get("session")
        session = self.sessions.get(name) if isinstance(name, str) else None
        if session is None:
            raise SessionError("unknown_session", f"no session named {name!r}")
        return session

    @staticmethod
    def _edge_arrays(request: dict) -> tuple[list, list]:
        src, dst = request.get("src"), request.get("dst")
        if not isinstance(src, list) or not isinstance(dst, list):
            raise SessionError(
                "invalid_request", "insert/delete need 'src' and 'dst' lists"
            )
        if len(src) != len(dst):
            raise SessionError(
                "invalid_request",
                f"src ({len(src)}) and dst ({len(dst)}) lengths differ",
            )
        return src, dst

    # --------------------------------------------------------------------- ops
    async def _op_ping(self, request: dict) -> dict:
        return {"server_time": time.time(), "sessions": len(self.sessions)}

    async def _op_open(self, request: dict) -> dict:
        name = request.get("session")
        if not isinstance(name, str) or not _SESSION_NAME.match(name):
            raise SessionError(
                "invalid_request",
                "session names are 1-64 chars of [A-Za-z0-9._-], "
                "starting alphanumeric",
            )
        if name in self.sessions:
            raise SessionError("duplicate_session", f"session {name!r} already open")
        if len(self.sessions) >= self.config.max_sessions:
            raise SessionError(
                "admission_rejected",
                f"server is at its {self.config.max_sessions}-session limit",
            )
        num_nodes = request.get("num_nodes")
        if not isinstance(num_nodes, int) or num_nodes < 1:
            raise SessionError("invalid_request", "open needs integer num_nodes >= 1")
        options = dict(
            num_colors=4, seed=0, misra_gries_k=0, misra_gries_t=0, batch_edges=None,
            max_queue_depth=self.config.max_queue_depth,
            memory_budget_bytes=self.config.memory_budget_bytes,
        )
        for key, default in options.items():
            value = options[key] = request.get(key, default)
            if value is None and key in ("batch_edges", "memory_budget_bytes"):
                continue  # null: no chunking / no budget
            # Integers only: int() would truncate 4.9 and accept "7" or True.
            if isinstance(value, bool) or not isinstance(value, int):
                raise SessionError("invalid_request", f"open option {key!r} must be an integer")
        event_log = (
            os.path.join(self.config.event_dir, f"{name}.ndjson")
            if self.config.event_dir
            else None
        )
        session = GraphSession(
            name,
            num_nodes,
            **options,
            event_log=event_log,
            observability=self.config.observability,
        )
        session.start()
        self.sessions[name] = session
        self.sessions_opened += 1
        if self.config.observability:
            self.metrics.counter("service.sessions_opened").inc()
            self.metrics.gauge("service.sessions_open").set(len(self.sessions))
        return {
            "session": name,
            "num_dpus": session.counter.partitioner.num_dpus,
            "event_log": event_log,
        }

    @staticmethod
    def _trace_id(request: dict) -> str | None:
        trace_id = request.get("trace_id")
        return trace_id if isinstance(trace_id, str) else None

    async def _op_insert(self, request: dict) -> dict:
        session = self._session(request)
        src, dst = self._edge_arrays(request)
        return await session.submit(
            "insert", src, dst, trace_id=self._trace_id(request)
        )

    async def _op_delete(self, request: dict) -> dict:
        session = self._session(request)
        src, dst = self._edge_arrays(request)
        return await session.submit(
            "delete", src, dst, trace_id=self._trace_id(request)
        )

    async def _op_count(self, request: dict) -> dict:
        return await self._session(request).count(trace_id=self._trace_id(request))

    async def _op_stats(self, request: dict) -> dict:
        if request.get("session") is not None:
            return self._session(request).stats()
        return {
            "sessions": sorted(self.sessions),
            "max_sessions": self.config.max_sessions,
            "sessions_opened": self.sessions_opened,
            "sessions_expired": self.sessions_expired,
            "uptime_seconds": time.time() - self.started_at,
        }

    async def _op_close(self, request: dict) -> dict:
        session = self._session(request)
        self.sessions.pop(session.name, None)
        if self.config.observability:
            self.metrics.gauge("service.sessions_open").set(len(self.sessions))
        return await session.close()

    async def _op_metrics(self, request: dict) -> dict:
        return self.metrics_snapshot()

    # ------------------------------------------------------------- exposition
    @staticmethod
    def _latency_summary(registry: MetricsRegistry, prefix: str) -> dict:
        """Per-op ``{n, mean, p50, p99}`` from the latency histograms.

        Plain floats on purpose: :func:`~repro.observability.history.flatten_numeric`
        turns them into trendable series (``…latency.<op>.p99``) without any
        histogram decoding.  The field is ``n`` rather than ``count`` so the
        op named ``count`` never produces a ``….count.count`` series that the
        generic exact-match trend rules would claim.
        """
        out: dict[str, dict] = {}
        for name in registry.names():
            if not name.startswith(prefix):
                continue
            instrument = registry.get(name)
            snap = instrument.snapshot()
            if snap.get("kind") != "histogram":
                continue
            out[name[len(prefix):]] = {
                "n": int(snap["count"]),
                "mean": float(instrument.mean),
                "p50": quantile_from_snapshot(snap, 0.50),
                "p99": quantile_from_snapshot(snap, 0.99),
            }
        return out

    def metrics_snapshot(self) -> dict:
        """The ``repro-service-metrics/1`` document the ``metrics`` op returns.

        Server-wide instruments plus one block per open session; latency
        histograms are accompanied by precomputed p50/p99 summaries so text
        consumers (``repro-top``, the trend gate) never decode buckets.
        """
        observing = self.config.observability
        if observing:
            self.metrics.gauge("service.sessions_open").set(len(self.sessions))
        sessions: dict[str, dict] = {}
        for name, session in sorted(self.sessions.items()):
            registry = session.telemetry.metrics
            pending = session._queue.qsize()
            resident = int(session.counter.resident_bytes)
            if session.observability:
                registry.gauge("session.queue_depth").set(pending)
                registry.gauge("session.resident_bytes").set(resident)
            sessions[name] = {
                "metrics": registry.export(),
                "latency": self._latency_summary(
                    registry, "session.op_latency_seconds."
                ),
                "pending": int(pending),
                "resident_bytes": resident,
                "rounds": int(session.batches_applied),
                "event_log": session.event_log_path,
            }
        return {
            "schema": SERVICE_METRICS_SCHEMA,
            "generated_at": time.time(),
            "uptime_seconds": time.time() - self.started_at,
            "observability": bool(observing),
            "max_sessions": int(self.config.max_sessions),
            "sessions_open": len(self.sessions),
            "service": self.metrics.export(),
            "latency": self._latency_summary(
                self.metrics, "service.op_latency_seconds."
            ),
            "sessions": sessions,
        }

    def write_metrics(self) -> str | None:
        """Write the snapshot to ``config.metrics_out`` (no-op when unset)."""
        if not self.config.metrics_out:
            return None
        write_snapshot(self.config.metrics_out, self.metrics_snapshot())
        return self.config.metrics_out


# ------------------------------------------------------------------ console
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve concurrent triangle-counting sessions over the "
        "length-prefixed JSON protocol (see docs/service.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7707,
                        help="TCP port; 0 picks an ephemeral port (printed, "
                             "and written to --ready-file)")
    parser.add_argument("--max-sessions", type=int, default=8,
                        help="admission control: concurrent session cap")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="per-session pending-batch cap before "
                             "backpressure rejections")
    parser.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                        help="default per-session memory budget enforced "
                             "against the routed+resident byte accounting "
                             "(openers may override per session)")
    parser.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                        help="reap sessions idle longer than S seconds")
    parser.add_argument("--event-dir", default=None, metavar="DIR",
                        help="write one join-complete NDJSON event stream "
                             "per session (tail with repro-watch)")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write HOST:PORT here once listening (lets "
                             "scripts find an ephemeral --port 0)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics snapshot here on shutdown "
                             "(.prom/.txt = Prometheus text, else JSON); "
                             "combine with --metrics-interval for periodic "
                             "scrape files")
    parser.add_argument("--metrics-interval", type=float, default=None,
                        metavar="S",
                        help="rewrite --metrics-out every S seconds while "
                             "serving")
    parser.add_argument("--no-observability", action="store_true",
                        help="disable the observability plane (tracing, "
                             "metrics, per-request timing); counts are "
                             "bit-identical either way")
    return parser


async def _serve(args) -> int:
    service = TriangleService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            max_queue_depth=args.queue_depth,
            memory_budget_bytes=args.memory_budget,
            idle_timeout=args.idle_timeout,
            event_dir=args.event_dir,
            observability=not args.no_observability,
            metrics_out=args.metrics_out,
            metrics_interval=args.metrics_interval,
        )
    )
    await service.start()
    print(f"repro-serve listening on {args.host}:{service.port}", flush=True)
    if args.ready_file:
        with open(args.ready_file, "w") as fh:
            fh.write(f"{args.host}:{service.port}\n")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-Unix event loops
            pass
    await stop.wait()
    print("repro-serve shutting down", flush=True)
    await service.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.queue_depth < 1:
        parser.error("--queue-depth must be >= 1")
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
