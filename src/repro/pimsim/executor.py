"""Pluggable host-side execution engines for the PIM simulator.

The vertex-coloring partition makes every DPU's work independent — no
inter-DPU communication (paper Sec. 3.1) — so the simulator is free to run
the ``binom(C+2, 3)`` per-DPU kernel executions on the host however it
likes: sequentially, on a thread pool, or fanned out to worker processes.
This module provides that choice behind one interface.

**The determinism contract.**  Choosing an engine changes *wall-clock* time
only.  Simulated time is ``launch_latency + max`` over per-DPU compute
seconds, every DPU's functional result and charge ledger depends only on its
own MRAM contents, and results are always merged back in DPU-ID order — so
triangle counts, per-phase simulated seconds, charge vectors, and trace
events are bit-identical across all three engines.  The parity tests in
``tests/test_pimsim_executor.py`` pin this contract.

Engines:

* :class:`SerialExecutor` — the original in-loop behavior; default, and what
  tests use.
* :class:`ThreadExecutor` — a ``ThreadPoolExecutor`` over DPUs.  Python-level
  code holds the GIL, but the kernels spend most of their time inside
  NumPy/SciPy ops that release it, so threads already overlap the heavy
  sparse-matrix work.
* :class:`ProcessExecutor` — chunks the DPU list into ``jobs`` contiguous
  batches and ships each batch (kernel + DPU objects) to a
  ``ProcessPoolExecutor`` worker.  The worker runs the kernel functionally,
  and the *mutated* DPU objects — MRAM result symbols, instruction/DMA charge
  vectors, run stats — travel back whole, so the parent merges clocks and
  traces exactly as if it had run the kernels itself.  Pays pickling +
  fork overhead; wins when per-DPU kernel work dominates (large samples,
  large ``C``).  With ``jobs=1`` (or one usable core) it degrades gracefully
  to the serial path with no pool at all.

Engines are selected via :class:`~repro.pimsim.config.PimSystemConfig`
(``executor=`` / ``jobs=``), the :class:`~repro.core.api.PimTriangleCounter`
keyword arguments, or the CLI's ``--executor/--jobs`` flags.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from ..common.errors import ConfigurationError
from .config import EXECUTOR_NAMES
from .dpu import Dpu
from .kernel import Kernel
from .shm import ShmChunk, ShmSegment, decode_chunk, encode_chunk, shm_available

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "set_payload_pickle_hook",
    "EXECUTOR_NAMES",
]

#: A per-DPU task: receives one DPU (mutable) and one payload, returns a result.
DpuTask = Callable[[Dpu, Any], Any]


def _default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def _launch_one(dpu: Dpu, kernel: Kernel) -> float:
    """Run one kernel launch on one DPU and return its compute time."""
    dpu.reset_charges()
    kernel.run(dpu)
    return dpu.compute_seconds()


def _timed_task(fn: DpuTask, dpu: Dpu, payload: Any) -> tuple[Any, float]:
    """Run one per-DPU task and measure its wall time *where it runs*.

    The wrapper executes inside the worker (thread or process), so the
    measured seconds are the worker's own, and the float travels back over
    the same merge path as the result — the telemetry layer turns these into
    per-DPU child spans without ever sharing a span tree across workers.
    Module-level so ``partial(_timed_task, fn)`` stays picklable.
    """
    start = time.perf_counter()
    result = fn(dpu, payload)
    return result, time.perf_counter() - start


def _run_chunk(
    fn: DpuTask, dpus: list[Dpu], payloads: list[Any]
) -> tuple[list[Dpu], list[Any]]:
    """Worker-process entry point: run ``fn`` over a chunk of DPUs.

    Returns both the results *and* the mutated DPU objects so the parent can
    splice the post-run state (MRAM symbols, charge ledgers) back into its
    own DPU list.  Must stay a module-level function: it crosses the process
    boundary by pickle.
    """
    results = [fn(dpu, payload) for dpu, payload in zip(dpus, payloads)]
    return dpus, results


def _run_chunk_shm(fn: DpuTask, chunk: ShmChunk) -> tuple[list[Dpu], list[Any]]:
    """Worker entry for the shared-memory transport: decode, then run.

    The control message carries only the object skeleton; the array bytes
    (MRAM samples, routed chunks, reservoir backing stores) are copied out of
    the named segment.  Results travel back by pickle as before — post-run
    MRAM holds small result symbols, not the sample.
    """
    dpus, payloads = decode_chunk(chunk)
    return _run_chunk(fn, dpus, payloads)


#: Test hook: called with ``(pickled_bytes, transport)`` for every chunk the
#: process engine submits ("shm" or "pickle").  Measuring costs an extra
#: serialization pass, so nothing is computed unless a hook is installed.
_payload_pickle_hook: Callable[[int, str], None] | None = None


def set_payload_pickle_hook(hook: Callable[[int, str], None] | None) -> None:
    """Install (or clear, with ``None``) the per-chunk payload-bytes probe."""
    global _payload_pickle_hook
    _payload_pickle_hook = hook


def _note_payload(obj: object, transport: str) -> None:
    if _payload_pickle_hook is not None:
        size = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        _payload_pickle_hook(size, transport)


def _chunk_slices(n: int, parts: int) -> list[slice]:
    """Split ``range(n)`` into at most ``parts`` contiguous, balanced slices."""
    parts = max(1, min(parts, n))
    bounds = np.linspace(0, n, parts + 1).astype(np.int64)
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


class Executor:
    """Common interface of the execution engines.

    The one primitive is :meth:`map_dpus_async`: apply a per-DPU task to
    every DPU, preserving any mutation the task makes to the DPU object, and
    return a ``join`` that yields the task results in DPU order.
    :meth:`map_dpus` joins it at once; :meth:`launch` and :meth:`gather` are
    the two host operations built on that.
    """

    name = "abstract"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs) if jobs is not None else _default_jobs()

    # -------------------------------------------------------------- primitive
    def map_dpus(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn(dpu, payload)`` to every DPU; results in DPU order."""
        return self.map_dpus_async(fn, dpus, payloads)()

    def map_dpus_timed(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> list[tuple[Any, float]]:
        """Like :meth:`map_dpus`, returning ``(result, worker_wall_seconds)``.

        Used when a :class:`~repro.telemetry.spans.Telemetry` wants per-DPU
        detail spans; the timing wrapper rides the engine's normal merge-back
        path, so every engine supports it without special cases.
        """
        return self.map_dpus(partial(_timed_task, fn), dpus, payloads)

    def map_dpus_async(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> Callable[[], list[Any]]:
        """Dispatch a per-DPU map and return a zero-argument ``join``.

        ``join()`` blocks until every task finished, applies the engine's
        merge-back (mutated DPUs spliced by position for the process engine),
        and returns the results in DPU order — exactly what :meth:`map_dpus`
        would have returned.  Between dispatch and join the caller may do
        unrelated host work (the batched ingest loop routes the next edge
        chunk here) but must not touch the DPUs or the payloads.

        The serial engine is eager (runs the map at dispatch time); pooled
        engines overlap the work with the caller's.  Results are identical
        either way — only wall-clock changes, never simulated time or counts.
        """
        raise NotImplementedError

    # ------------------------------------------------------------- operations
    def launch(self, kernel: Kernel, dpus: list[Dpu]) -> list[float]:
        """Run ``kernel`` on every DPU; return per-DPU compute seconds."""
        return self.map_dpus(_launch_one, dpus, [kernel] * len(dpus))

    def launch_timed(self, kernel: Kernel, dpus: list[Dpu]) -> list[tuple[float, float]]:
        """Launch with per-DPU ``(compute_seconds, worker_wall_seconds)`` pairs."""
        return self.map_dpus_timed(_launch_one, dpus, [kernel] * len(dpus))

    def gather(self, dpus: list[Dpu], symbol: str) -> list[np.ndarray]:
        """Pull one named MRAM buffer from every DPU.

        After a launch the post-run DPU state lives in the parent process for
        every engine (the process engine merges it back), so a gather is a
        plain in-memory read; no engine ships it anywhere.
        """
        return [dpu.mram.load(symbol, count_read=False) for dpu in dpus]

    def close(self) -> None:
        """Release any worker pool.  Idempotent; a no-op for poolless engines."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """Run every per-DPU task in the calling thread (the original behavior)."""

    name = "serial"

    def map_dpus(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> list[Any]:
        return [fn(dpu, payload) for dpu, payload in zip(dpus, payloads)]

    def map_dpus_async(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> Callable[[], list[Any]]:
        results = self.map_dpus(fn, dpus, payloads)
        return lambda: results


class ThreadExecutor(Executor):
    """Fan per-DPU tasks out to a thread pool.

    DPUs never share state, so in-place mutation from worker threads is safe;
    results are collected in submission (= DPU) order regardless of thread
    scheduling, keeping the merge deterministic.
    """

    name = "thread"

    def __init__(self, jobs: int | None = None) -> None:
        super().__init__(jobs)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.jobs)
        return self._pool

    def map_dpus_async(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> Callable[[], list[Any]]:
        if len(dpus) <= 1 or self.jobs == 1:
            results = [fn(dpu, payload) for dpu, payload in zip(dpus, payloads)]
            return lambda: results
        pool = self._ensure_pool()
        futures = [pool.submit(fn, dpu, payload) for dpu, payload in zip(dpus, payloads)]
        return lambda: [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor(Executor):
    """Fan chunked per-DPU batches out to worker processes.

    Each worker receives ``(fn, dpus_chunk, payloads_chunk)`` by pickle, runs
    the tasks, and returns the results *plus the mutated DPU objects*; the
    parent splices those DPUs back into the caller's list by position.  Chunk
    boundaries are a pure function of ``(len(dpus), jobs)`` and merging is by
    index, so the engine cannot perturb results or the cost model.

    Chunks travel through POSIX shared memory (:mod:`.shm`): the large
    arrays — DPU MRAM samples, routed edge chunks, reservoir backing arrays —
    are spilled into one segment per chunk and the pickled control message
    shrinks to the object skeleton plus a name/offset table.  Each segment is
    unlinked the moment its chunk's future resolves (success or worker
    crash); :meth:`close` — which ``DpuSet.free()`` calls — unlinks any
    leftovers, so no ``/dev/shm`` entry outlives the run.  Where shared
    memory is unavailable (:func:`.shm.shm_available`) or a segment cannot be
    created, the chunk is pickled instead; the two transports are
    bit-identical by construction (the worker sees equal arrays either way).

    If the platform refuses to give us a process pool (sandboxes without
    semaphores, for instance), the engine warns once and falls back to serial
    execution rather than failing the run.
    """

    name = "process"

    def __init__(self, jobs: int | None = None) -> None:
        super().__init__(jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._fallback = False
        self._segments: dict[str, ShmSegment] = {}

    # ------------------------------------------------------------- transport
    def _submit_chunk(
        self,
        pool: ProcessPoolExecutor,
        fn: DpuTask,
        chunk_dpus: list[Dpu],
        chunk_payloads: list[Any],
    ) -> tuple[Future, str | None]:
        """Submit one chunk, spilling its arrays to shared memory when possible.

        Returns the future plus the segment name to unlink at join (``None``
        on the plain pickling path).  Any shared-memory failure degrades to
        pickling — the transport must never change results or kill a run.
        """
        if shm_available():
            try:
                encoded = encode_chunk((chunk_dpus, chunk_payloads))
            except OSError:
                encoded = None
            if encoded is not None:
                chunk, segment = encoded
                self._segments[segment.name] = segment
                _note_payload(chunk, "shm")
                return pool.submit(_run_chunk_shm, fn, chunk), segment.name
        _note_payload((chunk_dpus, chunk_payloads), "pickle")
        return pool.submit(_run_chunk, fn, chunk_dpus, chunk_payloads), None

    def _release_segment(self, name: str | None) -> None:
        if name is not None:
            segment = self._segments.pop(name, None)
            if segment is not None:
                segment.unlink()

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._fallback:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, PermissionError, ValueError) as exc:
                warnings.warn(
                    f"ProcessExecutor could not start a worker pool ({exc}); "
                    "falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._fallback = True
                return None
        return self._pool

    def map_dpus_async(
        self, fn: DpuTask, dpus: list[Dpu], payloads: Sequence[Any]
    ) -> Callable[[], list[Any]]:
        n = len(dpus)
        pool = None if n <= 1 or self.jobs == 1 else self._ensure_pool()
        if pool is None:
            # jobs=1, a single DPU or no pool: run in-process, no pickling.
            results = [fn(dpu, payload) for dpu, payload in zip(dpus, payloads)]
            return lambda: results
        chunks = _chunk_slices(n, self.jobs)
        payloads = list(payloads)
        try:
            submissions = [
                self._submit_chunk(pool, fn, dpus[sl], payloads[sl]) for sl in chunks
            ]
        except Exception:
            # An unpicklable payload or a broken pool is a real error for the
            # caller to see; just don't leak the pool or the segments already
            # created — close() unlinks them.
            self.close()
            raise

        def join() -> list[Any]:
            try:
                merged = []
                for future, segment in submissions:
                    try:
                        merged.append(future.result())
                    finally:
                        # The worker is done with the chunk (or died); either
                        # way its segment must not outlive the future.
                        self._release_segment(segment)
            except Exception:
                self.close()
                raise
            results: list[Any] = [None] * n
            for sl, (chunk_dpus, chunk_results) in zip(chunks, merged):
                dpus[sl] = chunk_dpus  # splice post-run state back, by position
                results[sl] = chunk_results
            return results

        return join

    def close(self) -> None:
        # Segments first: a leftover here means a chunk never joined (error
        # path, abandoned async map, or a crashed worker) and nobody else
        # will ever unlink it.
        for name in list(self._segments):
            self._release_segment(name)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_ENGINES: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}
assert set(_ENGINES) == set(EXECUTOR_NAMES)


def make_executor(name: str, jobs: int | None = None) -> Executor:
    """Build an execution engine by name (``serial`` / ``thread`` / ``process``)."""
    try:
        engine = _ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; choose from {', '.join(EXECUTOR_NAMES)}"
        ) from None
    return engine(jobs)
