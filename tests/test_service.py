"""Multi-session triangle-counting service: protocol, admission, parity.

The load-bearing guarantees (see docs/service.md):

* a session's count is bit-identical to a standalone
  :class:`DynamicPimCounter` replaying the same batches — the service adds
  scheduling, never arithmetic — including with concurrent sessions;
* admission control rejects (max sessions, queue depth, memory budget)
  instead of degrading accepted work;
* every session leaves a join-complete NDJSON stream that `repro-watch`
  renders and `repro-validate --require-complete` accepts.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.dynamic import DynamicPimCounter
from repro.graph.coo import COOGraph
from repro.graph.generators import erdos_renyi
from repro.graph.triangles import count_triangles
from repro.observability.logjson import (
    load_ndjson,
    stream_status,
    validate_ndjson_events,
)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TriangleService,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
)
from repro.service.session import GraphSession, SessionError


# ----------------------------------------------------------------- harness
class _ServiceThread:
    """Run a TriangleService on its own event loop in a daemon thread."""

    def __init__(self, **config) -> None:
        self.service = TriangleService(ServiceConfig(port=0, **config))
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "service failed to start"

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    @property
    def url(self) -> str:
        return f"127.0.0.1:{self.service.port}"

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@contextmanager
def running_service(**config):
    server = _ServiceThread(**config)
    try:
        yield server
    finally:
        server.stop()


def _standalone(batches, num_nodes, *, num_colors, seed, deletions=()):
    """Replay the same batches on a bare counter (the parity oracle)."""
    dyn = DynamicPimCounter(num_nodes, num_colors=num_colors, seed=seed)
    for batch in batches:
        dyn.apply_update(batch)
    for batch in deletions:
        dyn.apply_deletion(batch)
    return dyn


def _drive(url, name, graph, *, num_colors, seed, batch_edges=100):
    """Open a session, stream `graph`, count, close; returns the count view."""
    with ServiceClient(url) as client:
        client.open_session(
            name, num_nodes=graph.num_nodes, num_colors=num_colors, seed=seed
        )
        client.insert_graph(name, graph, batch_edges=batch_edges)
        view = client.count(name)
        client.close_session(name)
    return view


# ------------------------------------------------------------------- parity
class TestCountParity:
    def test_session_matches_standalone_and_oracle(self, small_graph):
        with running_service() as server:
            view = _drive(server.url, "solo", small_graph, num_colors=3, seed=7)
        batches = [small_graph.slice(s, min(s + 100, small_graph.num_edges))
                   for s in range(0, small_graph.num_edges, 100)]
        dyn = _standalone(batches, small_graph.num_nodes, num_colors=3, seed=7)
        assert view["triangles"] == dyn.triangles == count_triangles(small_graph)
        assert view["cumulative_edges"] == small_graph.num_edges

    def test_two_concurrent_sessions_bit_identical(self, rngs):
        g1 = erdos_renyi(70, 350, rngs.stream("g1"), name="g1").canonicalize()
        g2 = erdos_renyi(90, 500, rngs.stream("g2"), name="g2").canonicalize()
        results: dict[str, dict] = {}
        errors: list[BaseException] = []

        def drive(name, graph, colors, seed):
            try:
                results[name] = _drive(
                    server.url, name, graph, num_colors=colors, seed=seed,
                    batch_edges=50,
                )
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        with running_service(max_sessions=4) as server:
            threads = [
                threading.Thread(target=drive, args=("alpha", g1, 3, 11)),
                threading.Thread(target=drive, args=("beta", g2, 4, 22)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        assert not errors, errors
        for name, graph, colors, seed in (
            ("alpha", g1, 3, 11), ("beta", g2, 4, 22)
        ):
            batches = [graph.slice(s, min(s + 50, graph.num_edges))
                       for s in range(0, graph.num_edges, 50)]
            dyn = _standalone(batches, graph.num_nodes, num_colors=colors, seed=seed)
            assert results[name]["triangles"] == dyn.triangles == count_triangles(graph)

    def test_deletions_through_the_service(self, small_graph):
        half = small_graph.slice(0, small_graph.num_edges // 2)
        rest = small_graph.slice(small_graph.num_edges // 2, small_graph.num_edges)
        with running_service() as server:
            with ServiceClient(server.url) as client:
                client.open_session("fd", num_nodes=small_graph.num_nodes,
                                    num_colors=3, seed=2)
                client.insert_graph("fd", small_graph, batch_edges=80)
                removed = client.delete("fd", half.src, half.dst)
                view = client.count("fd")
                client.close_session("fd")
        assert removed["op"] == "delete"
        assert removed["removed_edges"] == half.num_edges
        assert removed["new_edges"] == 0
        assert view["triangles"] == count_triangles(rest)
        assert view["cumulative_edges"] == rest.num_edges

    def test_count_observes_prior_batches(self, triangle_graph):
        # count travels the same queue as the batches: no lost updates.
        with running_service() as server:
            with ServiceClient(server.url) as client:
                client.open_session("ord", num_nodes=4, num_colors=2, seed=0)
                total = 0
                for u, v in triangle_graph.iter_edges():
                    client.insert("ord", [u], [v])
                    total += 1
                    assert client.count("ord")["cumulative_edges"] == total
                assert client.count("ord")["triangles"] == 1
                client.close_session("ord")


# --------------------------------------------------------------- admission
class TestAdmission:
    def test_max_sessions_rejected(self):
        with running_service(max_sessions=1) as server:
            with ServiceClient(server.url) as client:
                client.open_session("one", num_nodes=10)
                with pytest.raises(ServiceError) as err:
                    client.open_session("two", num_nodes=10)
                assert err.value.code == "admission_rejected"
                client.close_session("one")
                client.open_session("two", num_nodes=10)  # slot freed by close
                client.close_session("two")

    def test_duplicate_session_rejected(self):
        with running_service() as server:
            with ServiceClient(server.url) as client:
                client.open_session("dup", num_nodes=10)
                with pytest.raises(ServiceError) as err:
                    client.open_session("dup", num_nodes=10)
                assert err.value.code == "duplicate_session"

    def test_memory_budget_rejection(self, small_graph):
        # Budget covers the first small insert but not a follow-up big one;
        # accepted work is untouched by the rejection.
        dyn = DynamicPimCounter(small_graph.num_nodes, num_colors=3, seed=1)
        budget = dyn.routed_bytes_for(60)
        small = small_graph.slice(0, 40)
        big = small_graph.slice(40, small_graph.num_edges)
        with running_service() as server:
            with ServiceClient(server.url) as client:
                client.open_session(
                    "tight", num_nodes=small_graph.num_nodes, num_colors=3,
                    seed=1, memory_budget_bytes=budget,
                )
                client.insert("tight", small.src, small.dst)
                with pytest.raises(ServiceError) as err:
                    client.insert("tight", big.src, big.dst)
                assert err.value.code == "budget_exceeded"
                view = client.count("tight")
                assert view["triangles"] == count_triangles(small)
                stats = client.stats("tight")
                assert stats["memory_budget_bytes"] == budget
                assert stats["resident_bytes"] <= budget
                client.close_session("tight")

    def test_queue_depth_backpressure(self):
        async def scenario():
            session = GraphSession("bp", 16, num_colors=2, max_queue_depth=2)
            # No worker: queued batches stay pending, so the third submit
            # must bounce with backpressure instead of buffering.
            pending = [
                asyncio.ensure_future(session.submit("insert", [0], [1])),
                asyncio.ensure_future(session.submit("insert", [1], [2])),
            ]
            await asyncio.sleep(0)  # let both reach the queue
            with pytest.raises(SessionError) as err:
                await session.submit("insert", [2], [3])
            assert err.value.code == "backpressure"
            await session.close()  # fails the queued futures, frees the DPUs
            results = await asyncio.gather(*pending, return_exceptions=True)
            assert all(
                isinstance(r, SessionError) and r.code == "session_closed"
                for r in results
            )

        asyncio.run(scenario())

    def test_idle_sessions_are_reaped(self, tmp_path):
        with running_service(
            idle_timeout=0.3, event_dir=str(tmp_path)
        ) as server:
            with ServiceClient(server.url) as client:
                client.open_session("sleepy", num_nodes=10)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    try:
                        client.stats("sleepy")
                    except ServiceError as err:
                        assert err.code == "unknown_session"
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("idle session was never reaped")
            assert server.service.sessions_expired == 1
        # Expiry is the graceful path: the stream still join-completes.
        records = load_ndjson(tmp_path / "sleepy.ndjson")
        assert stream_status(records) == "ok"


# ------------------------------------------------------------- event streams
class TestEventStreams:
    def test_stream_is_schema_valid_and_join_complete(self, tmp_path, small_graph):
        with running_service(event_dir=str(tmp_path)) as server:
            view = _drive(server.url, "logged", small_graph, num_colors=3,
                          seed=7, batch_edges=64)
        path = tmp_path / "logged.ndjson"
        records = load_ndjson(path)
        assert validate_ndjson_events(records) == []
        assert stream_status(records) == "ok"
        events = [r["event"] for r in records]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        hb = [r for r in records if r["event"] == "heartbeat"]
        assert len(hb) == -(-small_graph.num_edges // 64)
        assert hb[-1]["edges_streamed"] == small_graph.num_edges
        assert hb[-1]["peak_routed_bytes"] > 0
        est = [r for r in records if r["event"] == "estimate"]
        assert est and est[-1]["estimate"] == float(view["triangles"])

    def test_watch_and_validate_accept_a_session_stream(self, tmp_path, small_graph, capsys):
        from repro.observability.validate import main as validate_main
        from repro.observability.watch import main as watch_main

        with running_service(event_dir=str(tmp_path)) as server:
            _drive(server.url, "watched", small_graph, num_colors=2, seed=3)
        path = str(tmp_path / "watched.ndjson")
        assert validate_main([path, "--require-complete"]) == 0
        assert watch_main([path]) == 0
        assert "completed ok" in capsys.readouterr().out


# ---------------------------------------------------------------- protocol
class TestProtocol:
    def test_unknown_op_and_bad_arguments(self):
        with running_service() as server:
            with ServiceClient(server.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.request("frobnicate")
                assert err.value.code == "invalid_request"
                with pytest.raises(ServiceError) as err:
                    client.request("_dispatch")  # private handlers unreachable
                assert err.value.code == "invalid_request"
                client.open_session("p", num_nodes=5)
                with pytest.raises(ServiceError) as err:
                    client.request("insert", session="p", src=[0, 1], dst=[1])
                assert err.value.code == "invalid_request"
                with pytest.raises(ServiceError) as err:
                    client.insert("p", [99], [1])  # node id out of range
                assert err.value.code == "invalid_request"
                with pytest.raises(ServiceError) as err:
                    client.request("open", session="bad name!", num_nodes=5)
                assert err.value.code == "invalid_request"
                with pytest.raises(ServiceError) as err:
                    client.count("ghost")
                assert err.value.code == "unknown_session"

    @pytest.mark.parametrize(
        "option, value",
        [
            ("max_queue_depth", 0),  # asyncio.Queue(0) would be unbounded
            ("max_queue_depth", -3),
            ("max_queue_depth", 2.5),
            ("num_colors", 4.9),
            ("num_colors", True),
            ("num_colors", None),
            ("seed", "7"),
            ("misra_gries_k", 0.0),
            ("misra_gries_t", False),
            ("batch_edges", "64"),
            ("memory_budget_bytes", 1e6),
        ],
    )
    def test_open_rejects_non_integer_and_unbounded_options(self, option, value):
        with running_service() as server:
            with ServiceClient(server.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.request("open", session="s", num_nodes=5, **{option: value})
                assert err.value.code == "invalid_request"
                assert server.service.sessions == {}
                # null keeps its meaning where the option is optional
                client.request(
                    "open", session="s", num_nodes=5, batch_edges=None,
                    memory_budget_bytes=None,
                )

    def test_open_rejects_num_nodes_too_wide_for_record_keys(self):
        with running_service() as server:
            with ServiceClient(server.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.request("open", session="s", num_nodes=1 << 40)
                assert err.value.code == "invalid_request"
                assert server.service.sessions == {}

    def test_serve_rejects_queue_depth_below_one(self, monkeypatch):
        from repro.service import server

        monkeypatch.setattr(server, "_serve", lambda args: pytest.fail("served"))
        with pytest.raises(SystemExit):
            server.main(["--port", "0", "--queue-depth", "0"])

    def test_oversized_frame_is_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_closed_session_rejects_further_ops(self, triangle_graph):
        with running_service() as server:
            with ServiceClient(server.url) as client:
                client.open_session("gone", num_nodes=4)
                client.insert("gone", triangle_graph.src, triangle_graph.dst)
                client.close_session("gone")
                with pytest.raises(ServiceError) as err:
                    client.insert("gone", [0], [1])
                assert err.value.code == "unknown_session"

    def test_close_frees_dpu_state(self, triangle_graph):
        async def scenario():
            session = GraphSession("free", 4, num_colors=2)
            session.start()
            await session.submit(
                "insert", triangle_graph.src, triangle_graph.dst
            )
            await session.close()
            assert session.counter.closed
            assert session.counter.resident_bytes == 0
            assert session.counter.dpus._freed

        asyncio.run(scenario())


class TestCliServeUrl:
    def test_count_via_serve_url(self, tmp_path, small_graph, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "g.el"
        with open(path, "w") as fh:
            for u, v in small_graph.iter_edges():
                fh.write(f"{u} {v}\n")
        with running_service(event_dir=str(tmp_path / "events")) as server:
            code = cli_main([
                str(path), "--serve-url", server.url, "--colors", "3",
                "--seed", "5", "--batch-edges", "100", "--session", "cli-smoke",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"triangles (exact, via {server.url}" in out
        assert str(count_triangles(small_graph)) in out
        records = load_ndjson(tmp_path / "events" / "cli-smoke.ndjson")
        assert stream_status(records) == "ok"
