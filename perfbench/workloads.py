"""The benchmark's workloads: seeded inputs, closed loops and answer checks.

Every workload is a closed loop with one caller: the next operation is sent
only after the previous one returned.  Inputs come from ``--seed`` alone: the
dataset analogue's node ids are relabelled with a seeded permutation and its
edge order is shuffled, and the program receives only the resulting COO
arrays.  Every answer is checked against ``count_triangles`` on the same
relabelled edges.

* ``static-hub``: ``repro-count dataset:wikipedia`` at its defaults (small
  tier, C=8, exact, hash coloring, ``merge`` kernel, serial engine), counted
  repeatedly.  Count time depends on where the three hubs land in id order,
  so a run counts the seed's relabelling under ``rotations`` evenly spaced
  cyclic shifts of the id space: every node's id rank sweeps the whole range
  within one run, which keeps the run's median close to the same value from
  seed to seed while each count still pays the hub cost it would pay.
* ``static-dense``: ``humanjung`` at bench tier (dense, clustered, no hubs),
  C=8, counted repeatedly.
* ``stream-window``: sliding windows over ``wikipedia`` small-tier edges in
  seeded order, sent to a ``repro-serve`` subprocess at the service's default
  C=4.  Each step inserts one batch and deletes the batch inserted ``window``
  steps earlier; every ``count_every``-th step also asks for the count.  For
  the same reason as above the server holds one session per id rotation.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.api import PimTriangleCounter
from repro.graph import datasets
from repro.graph.coo import COOGraph
from repro.graph.triangles import count_triangles
from repro.service.client import ServiceClient, ServiceError

__all__ = ["WORKLOADS", "Op", "Outcome", "StaticWorkload", "StreamWorkload", "relabel"]

HERE = Path(__file__).resolve().parent


def relabel(graph: COOGraph, seed: int, rotation: int = 0, rotations: int = 1) -> COOGraph:
    """The graph under the seed's node permutation and edge order.

    ``rotation`` of ``rotations`` shifts the permuted ids cyclically by that
    fraction of the id space; the edge order is the same for every rotation.
    Edges stay oriented ``u < v`` and duplicate-free, as ``get_dataset``
    returns them.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    perm = rng.permutation(n)
    perm = (perm + rotation * n // rotations) % n
    order = rng.permutation(graph.num_edges)
    s, d = perm[graph.src[order]], perm[graph.dst[order]]
    return COOGraph(np.minimum(s, d), np.maximum(s, d), n, name=graph.name)


class Op(NamedTuple):
    kind: str
    wall: float
    edges: int
    #: The id rotation the operation ran on.
    rotation: int
    #: Whether spans were recorded during the operation.
    traced: bool = False


@dataclass
class Outcome:
    """What one run measured: per-operation walls and the checks."""

    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    service_errors: int = 0
    #: ``(variant, count)`` per static count, checked after measuring.
    answers: list = field(default_factory=list)
    #: Simulated seconds and their per-phase split (deterministic per seed).
    sim: dict = field(default_factory=dict)

    def walls(self, *kinds: str, traced: bool = False) -> list[float]:
        return [op.wall for op in self.ops if op.kind in kinds and op.traced == traced]

    def median(self, *kinds: str) -> float:
        """Median wall per id rotation, averaged over the rotations.

        Rotations differ in cost by up to 2x, so the pooled median would sit
        in the gaps between them and jump with small changes; the mean of
        per-rotation medians weighs each rotation equally.
        """
        by_rotation: dict[int, list[float]] = {}
        for op in self.ops:
            if op.kind in kinds and not op.traced:
                by_rotation.setdefault(op.rotation, []).append(op.wall)
        return statistics.fmean(statistics.median(w) for w in by_rotation.values())

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)


@dataclass
class StaticWorkload:
    """Repeated ``PimTriangleCounter.count`` on relabelled copies of a dataset."""

    dataset: str
    tier: str
    rotations: int
    num_colors: int = 8

    def setup(self, seed: int) -> list[COOGraph]:
        """Build the dataset, relabel it, and warm up on the tiny tier."""
        datasets.clear_cache()
        graph = datasets.get_dataset(self.dataset, self.tier)
        variants = [relabel(graph, seed, k, self.rotations) for k in range(self.rotations)]
        warm = relabel(datasets.get_dataset(self.dataset, "tiny"), seed)
        PimTriangleCounter(num_colors=self.num_colors).count(warm)
        return variants

    def measure(self, variants, seconds, trace_next=None) -> Outcome:
        """Count whole cycles over the variants until ``seconds`` have passed.

        With ``trace_next`` (traced runs), each variant is counted twice, once
        untraced and once traced, in alternating order: the pairs see the same
        machine state, so their difference is the tracing overhead.
        ``trace_next(on)`` is called before each count.  Answers are kept and
        checked afterwards (:meth:`check`), so the oracle's memory does not
        count in the process's peak RSS.
        """
        out = Outcome()
        start = time.perf_counter()
        while True:
            clocks = []
            for k, graph in enumerate(variants):
                modes = (False,) if trace_next is None else (k % 2 == 1, k % 2 == 0)
                for traced in modes:
                    if trace_next is not None:
                        trace_next(traced)
                    result = self._count(out, k, graph, traced)
                    if result is not None and not traced:
                        clocks.append(result.clock)
            if trace_next is not None:
                trace_next(False)
            if not out.sim and len(clocks) == len(variants):
                out.sim = _mean_phases(clocks)
            if time.perf_counter() - start >= seconds:
                return out

    def _count(self, out: Outcome, k: int, graph: COOGraph, traced: bool):
        counter = PimTriangleCounter(num_colors=self.num_colors)
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = counter.count(graph)
        except Exception:
            traceback.print_exc()
            out.fail(f"count of relabelling {k} raised")
            return None
        out.ops.append(Op("count", time.perf_counter() - t0, graph.num_edges, k, traced))
        out.answers.append((k, result.count))
        return result

    @staticmethod
    def check(variants, out: Outcome, corrupt=False) -> None:
        """Check every answer against ``count_triangles`` of its variant."""
        oracles = [count_triangles(g) for g in variants]
        for j, (k, got) in enumerate(out.answers):
            if corrupt and j == 0:
                got += 1
            if got != oracles[k]:
                out.fail(f"count of relabelling {k}: got {got}, oracle says {oracles[k]}")


def _mean_phases(clocks) -> dict:
    """Mean simulated seconds per phase; ``total`` is their sum."""
    phases = ("setup", "sample_creation", "triangle_count")
    sim = {p: statistics.fmean(c.get(p) for c in clocks) for p in phases}
    sim["total"] = statistics.fmean(c.total() for c in clocks)
    return sim


@dataclass
class StreamState:
    proc: subprocess.Popen
    client: ServiceClient
    #: One batch list per session, each under its own id rotation.
    streams: list[list[COOGraph]]
    num_nodes: int
    #: Rounds run; each session's window holds its batches ``step - window .. step - 1``.
    step: int = 0


@dataclass
class StreamWorkload:
    """Sliding edge windows streamed through a ``repro-serve`` subprocess.

    Update cost depends on where the hubs land in id order, as for
    ``static-hub``, so the server holds one session per id rotation of the
    seed's relabelling and the client steps them round-robin: one client, one
    connection, one request in flight.
    """

    dataset: str
    tier: str
    rotations: int = 4
    batches_per_pass: int = 66
    window: int = 8
    count_every: int = 4
    #: ``sim_s`` is read after this many rounds; a phase runs at least as many.
    sim_rounds: int = 16

    def __post_init__(self) -> None:
        self.out_dir = HERE.parent / ".bench_build" / "perfbench"

    @staticmethod
    def session(k: int) -> str:
        return f"bench{k}"

    def streams(self, seed: int) -> tuple[list[list[COOGraph]], int]:
        datasets.clear_cache()
        graph = datasets.get_dataset(self.dataset, self.tier)
        m = graph.num_edges
        size = math.ceil(m / self.batches_per_pass)
        streams = []
        for k in range(self.rotations):
            g = relabel(graph, seed, k, self.rotations)
            streams.append([g.slice(i, min(i + size, m)) for i in range(0, m, size)])
        return streams, graph.num_nodes

    def setup(self, seed: int, trace_out: str | None = None) -> StreamState:
        """Build the batches, start a server, open the sessions, fill the windows."""
        streams, num_nodes = self.streams(seed)
        proc, url = self._spawn(trace_out)
        try:
            client = ServiceClient(url)
        except BaseException:
            self._stop(proc)
            raise
        state = StreamState(proc, client, streams, num_nodes)
        try:
            for k in range(self.rotations):
                client.open_session(self.session(k), num_nodes=num_nodes)
            for step in range(self.window):
                for k, stream in enumerate(streams):
                    batch = stream[step % len(stream)]
                    client.insert(self.session(k), batch.src, batch.dst)
            state.step = self.window
        except BaseException:
            self.close(state)
            raise
        return state

    def _spawn(self, trace_out: str | None) -> tuple[subprocess.Popen, str]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        ready = self.out_dir / f"ready-{os.getpid()}.txt"
        ready.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        cmd += ["--port", "0", "--ready-file", str(ready)]
        with open(self.out_dir / "server.log", "ab") as log:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + 60.0
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if proc.poll() is not None or time.monotonic() > deadline:
                self._stop(proc)
                raise RuntimeError(f"repro-serve did not start; see {self.out_dir / 'server.log'}")
            time.sleep(0.01)
        url = ready.read_text().strip()
        ready.unlink()
        return proc, url

    @staticmethod
    def _stop(proc: subprocess.Popen) -> None:
        """Stop the server gracefully (it writes its spans on the way out)."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def close(self, state: StreamState) -> None:
        try:
            for k in range(self.rotations):
                state.client.close_session(self.session(k))
        except ServiceError as exc:
            print(f"perfbench: close_session failed: {exc}", file=sys.stderr)
        finally:
            state.client.close()
            self._stop(state.proc)

    def _window_oracle(self, state: StreamState, k: int) -> tuple[int, int]:
        """(triangles, edges) of session ``k``'s batches resident after the last round."""
        stream = state.streams[k]
        parts = [stream[s % len(stream)] for s in range(state.step - self.window, state.step)]
        src = np.concatenate([p.src for p in parts])
        dst = np.concatenate([p.dst for p in parts])
        return count_triangles(COOGraph(src, dst, state.num_nodes)), int(src.size)

    def _request(self, out: Outcome, kind: str, k: int, call, edges: int, traced: bool):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            response = call()
        except ServiceError as exc:
            out.service_errors += 1
            out.fail(f"{kind} raised {exc}")
            if exc.code == "connection_lost":
                raise
            return None
        out.ops.append(Op(kind, time.perf_counter() - t0, edges, k, traced))
        return response

    def measure(self, state: StreamState, seconds, trace_next=None, corrupt=False) -> Outcome:
        """Run rounds for ``seconds``, and at least ``sim_rounds``.

        A round steps every session once: insert its next batch, delete the
        batch inserted ``window`` rounds earlier.  Every ``count_every``-th
        round also counts each session and checks the answer.  With
        ``trace_next`` (traced runs), every other round is traced, so traced
        and untraced rounds see the same machine state.
        """
        out = Outcome()
        client, w = state.client, self.window
        start = time.perf_counter()
        first_step = state.step
        while True:
            traced = trace_next is not None and (state.step - first_step) % 2 == 1
            if trace_next is not None:
                trace_next(traced)
            sims = []
            for k, stream in enumerate(state.streams):
                name, n = self.session(k), len(stream)
                new, old = stream[state.step % n], stream[(state.step - w) % n]
                self._request(out, "insert", k, lambda: client.insert(name, new.src, new.dst),
                              new.num_edges, traced)
                deleted = self._request(out, "delete", k,
                                        lambda: client.delete(name, old.src, old.dst),
                                        old.num_edges, traced)
                if deleted is not None:
                    sims.append(deleted["cumulative_seconds"])
            state.step += 1
            done = state.step - first_step
            if done % self.count_every == 0:
                for k in range(self.rotations):
                    first = corrupt and done == self.count_every and k == 0
                    self._check_count(out, state, k, traced, corrupt=first)
            if done == self.sim_rounds and len(sims) == self.rotations:
                out.sim = {"dynamic": statistics.fmean(sims), "total": statistics.fmean(sims)}
            if done >= self.sim_rounds and time.perf_counter() - start >= seconds:
                if trace_next is not None:
                    trace_next(False)
                return out

    def _check_count(self, out, state: StreamState, k: int, traced: bool, corrupt: bool) -> None:
        name = self.session(k)
        view = self._request(out, "count", k, lambda: state.client.count(name), 0, traced)
        if view is None:
            return
        triangles, edges = self._window_oracle(state, k)
        got = view["triangles"] + (1 if corrupt else 0)
        if (got, view["cumulative_edges"]) != (triangles, edges):
            out.fail(f"{name} count after round {state.step}: got {got} triangles on "
                     f"{view['cumulative_edges']} edges, oracle says {triangles} on {edges}")


WORKLOADS = {
    "static-hub": StaticWorkload("wikipedia", "small", rotations=10),
    "static-dense": StaticWorkload("humanjung", "bench", rotations=1),
    "stream-window": StreamWorkload("wikipedia", "small"),
}
