"""Zero-pickle process engine: shared-memory transport, lifecycle, parity.

Three contracts pinned here:

* **No leaks** — every segment the parent creates is unlinked by the time the
  map returns, the run's ``free()`` completes, or a worker crashes; nothing
  is left in ``/dev/shm``.
* **Bit-identical results** — the shm transport and the plain pickling path
  (where shared memory is unavailable) produce identical counts, clocks and charges: a worker
  sees equal arrays either way.
* **Header-sized control messages** — with the transport on, the pickled
  bytes per submitted chunk collapse to the object skeleton (measured via the
  serialization-counting hook), instead of scaling with the edge sample.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.core.api import PimTriangleCounter
from repro.graph.generators import erdos_renyi
from repro.pimsim.executor import (
    ProcessExecutor,
    set_payload_pickle_hook,
)
from repro.pimsim.shm import (
    SHM_MIN_ARRAY_BYTES,
    decode_chunk,
    encode_chunk,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable in this sandbox"
)


def _shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture
def graph():
    return erdos_renyi(500, 3000, np.random.default_rng(13)).canonicalize()


# Module-level so it pickles by reference into pool workers.
def _boom(dpu, payload):
    raise RuntimeError("simulated worker failure")


def _identity(dpu, payload):
    return payload


class TestCodec:
    def test_roundtrip_nested_structure(self):
        rng = np.random.default_rng(0)
        payload = (
            [rng.integers(0, 100, 500), {"dst": rng.integers(0, 100, 500)}],
            ("meta", 7, rng.standard_normal(64)),
        )
        encoded = encode_chunk(payload)
        assert encoded is not None
        chunk, segment = encoded
        try:
            decoded = decode_chunk(chunk)
        finally:
            segment.unlink()
        assert np.array_equal(decoded[0][0], payload[0][0])
        assert np.array_equal(decoded[0][1]["dst"], payload[0][1]["dst"])
        assert decoded[1][0] == "meta" and decoded[1][1] == 7
        assert np.array_equal(decoded[1][2], payload[1][2])

    def test_decoded_arrays_are_writable_copies(self):
        arr = np.arange(1000, dtype=np.int64)
        chunk, segment = encode_chunk((arr,))
        try:
            (out,) = decode_chunk(chunk)
        finally:
            segment.unlink()
        out[0] = -1  # reservoirs mutate their backing arrays in place
        assert arr[0] == 0

    def test_small_payloads_skip_the_segment(self):
        tiny = np.arange(4, dtype=np.int64)  # 32 bytes < SHM_MIN_ARRAY_BYTES
        assert tiny.nbytes < SHM_MIN_ARRAY_BYTES
        assert encode_chunk((tiny, "x")) is None

    def test_control_message_is_header_sized(self):
        big = np.arange(1 << 18, dtype=np.int64)  # 2 MiB of array bytes
        chunk, segment = encode_chunk((big, big[: 1 << 17]))
        try:
            assert len(chunk.payload) < 4096
        finally:
            segment.unlink()

    def test_unlink_removes_dev_shm_entry_and_is_idempotent(self):
        before = _shm_entries()
        chunk, segment = encode_chunk((np.arange(1000, dtype=np.int64),))
        assert f"/dev/shm/{chunk.segment}" in _shm_entries() - before
        segment.unlink()
        segment.unlink()
        assert _shm_entries() == before

    def test_reservoir_backing_arrays_travel_by_segment(self):
        from repro.streaming.reservoir import EdgeReservoir

        res = EdgeReservoir(capacity=512, rng=np.random.default_rng(1))
        res.offer_batch(
            np.arange(400, dtype=np.int64), np.arange(400, dtype=np.int64) + 1
        )
        encoded = encode_chunk((res,))
        assert encoded is not None  # backing arrays were spilled
        chunk, segment = encoded
        try:
            (decoded,) = decode_chunk(chunk)
        finally:
            segment.unlink()
        a, b = res.edges(), decoded.edges()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert decoded.seen == res.seen and decoded.capacity == res.capacity


class TestExecutorLifecycle:
    def test_map_dpus_leaves_no_segments(self):
        before = _shm_entries()
        ex = ProcessExecutor(jobs=2)
        try:
            dpus = [np.arange(2000, dtype=np.int64) + i for i in range(4)]
            payloads = [np.arange(2000, dtype=np.int64) * i for i in range(4)]
            results = ex.map_dpus(_identity, dpus, payloads)
            for got, want in zip(results, payloads):
                assert np.array_equal(got, want)
        finally:
            ex.close()
        assert _shm_entries() == before
        assert not ex._segments

    def test_worker_failure_unlinks_segments(self):
        before = _shm_entries()
        ex = ProcessExecutor(jobs=2)
        try:
            dpus = [np.arange(2000, dtype=np.int64) for _ in range(4)]
            with pytest.raises(RuntimeError, match="simulated worker failure"):
                ex.map_dpus(_boom, dpus, [None] * 4)
        finally:
            ex.close()
        assert _shm_entries() == before
        assert not ex._segments

    def test_abandoned_async_map_is_cleaned_by_close(self):
        before = _shm_entries()
        ex = ProcessExecutor(jobs=2)
        dpus = [np.arange(2000, dtype=np.int64) for _ in range(4)]
        join = ex.map_dpus_async(_identity, dpus, [d.copy() for d in dpus])
        # Caller walks away without joining: close() (what DpuSet.free()
        # triggers) must reap the segments.
        ex.close()
        assert _shm_entries() == before
        del join

    def test_full_run_and_free_leave_no_segments(self, graph):
        before = _shm_entries()
        result = PimTriangleCounter(
            num_colors=3, seed=0, executor="process", jobs=2
        ).count(graph)
        assert result.count >= 0
        assert _shm_entries() == before

    def test_batched_ingest_with_reservoir_leaves_no_segments(self, graph):
        before = _shm_entries()
        serial = PimTriangleCounter(
            num_colors=3, seed=0, reservoir_capacity=256, batch_edges=700
        ).count(graph)
        proc = PimTriangleCounter(
            num_colors=3,
            seed=0,
            reservoir_capacity=256,
            batch_edges=700,
            executor="process",
            jobs=2,
        ).count(graph)
        assert proc.count == serial.count
        assert dict(proc.clock.phases) == dict(serial.clock.phases)
        assert _shm_entries() == before


class TestTransportParity:
    def test_shm_and_pickle_paths_bit_identical(self, graph, monkeypatch):
        serial = PimTriangleCounter(num_colors=3, seed=0).count(graph)
        shm_run = PimTriangleCounter(
            num_colors=3, seed=0, executor="process", jobs=2
        ).count(graph)
        monkeypatch.setattr("repro.pimsim.executor.shm_available", lambda: False)
        pickle_run = PimTriangleCounter(
            num_colors=3, seed=0, executor="process", jobs=2
        ).count(graph)
        for run in (shm_run, pickle_run):
            assert run.count == serial.count
            assert np.array_equal(run.per_dpu_counts, serial.per_dpu_counts)
            assert dict(run.clock.phases) == dict(serial.clock.phases)
            k, ks = run.kernel, serial.kernel
            assert (k.instructions, k.dma_requests, k.dma_bytes) == (
                ks.instructions,
                ks.dma_requests,
                ks.dma_bytes,
            )

    def test_payload_bytes_drop_to_header_size(self, graph, monkeypatch):
        """The serialization-counting hook: with the transport on, no routed
        edge array rides the pickle stream — per-chunk bytes stay at control
        -message size while the pickling path scales with the sample."""
        sizes: list[tuple[str, int]] = []
        set_payload_pickle_hook(lambda n, transport: sizes.append((transport, n)))
        try:
            PimTriangleCounter(
                num_colors=3, seed=0, executor="process", jobs=2
            ).count(graph)
            monkeypatch.setattr("repro.pimsim.executor.shm_available", lambda: False)
            PimTriangleCounter(
                num_colors=3, seed=0, executor="process", jobs=2
            ).count(graph)
        finally:
            set_payload_pickle_hook(None)
        shm_sizes = [n for t, n in sizes if t == "shm"]
        pickle_sizes = [n for t, n in sizes if t == "pickle"]
        assert shm_sizes and pickle_sizes
        # ~header size, absolutely and relative to the pickled sample bytes.
        assert max(shm_sizes) < 16_384
        assert max(shm_sizes) < max(pickle_sizes) / 5
