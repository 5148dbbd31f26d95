"""Span recorder and layer wrappers for the traced benchmark run.

The program itself carries no benchmark spans: :func:`install` replaces the
public functions of each layer, from the outside, with wrappers that record
one span per call.  A span holds its layer, start and end, its parent span in
the same thread, the operation's trace id, and a few work counts.  Spans stay
in memory (:attr:`Tracer.spans`) and are written out when the run ends.

Recording is off until :attr:`Tracer.enabled` is set, so a traced run can
measure an untraced phase and a traced phase with the same wrappers in place;
the difference between the two is the tracing overhead.

A layer's self time is its spans' durations minus the part covered by their
child spans (:func:`self_times`).  Spans nest per thread, so a span's children
never overlap and their durations add up.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

__all__ = ["Span", "Tracer", "install", "self_times", "dump_spans", "load_spans"]


@dataclass
class Span:
    span_id: int
    parent: int | None
    layer: str
    start: float
    end: float
    trace_id: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        #: Trace id of the operation in flight (one caller, closed loop).
        self.trace_id: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, attrs=None):
        """Wrap ``fn`` so each call records a span.

        ``layer`` is a layer name, or a callable ``(args, kwargs) -> name``
        for functions whose layer depends on what they are asked to run.
        ``attrs(args, kwargs, result) -> dict`` adds work counts.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            extra: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                name = layer(args, kwargs) if callable(layer) else layer
                trace_id = extra.pop("trace_id", self.trace_id)
                self.spans.append(
                    Span(span_id, parent, name, start, end, trace_id,
                         threading.get_ident(), extra)
                )

        return wrapper


def dump_spans(spans: list[Span], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in spans], fh)


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**raw) for raw in json.load(fh)]


def _patch(owner, name: str, wrapper_factory) -> None:
    setattr(owner, name, wrapper_factory(getattr(owner, name)))


def _edges_arg(args, kwargs, result) -> dict:
    return {"edges": int(args[0].size)}


def _oriented_edges(args, kwargs, result) -> dict:
    return {"edges": int(result[0].size)}


def _routed(args, kwargs, result) -> dict:
    return {"edges_in": int(result.edges_in), "routed": int(result.counts.sum())}


def _dpu_tasks(args, kwargs, result) -> dict:
    return {"dpu_tasks": len(args[2])}


def _map_layer(args, kwargs) -> str:
    fn = args[1]
    name = getattr(fn, "__name__", "")
    return "pimsim.insert" if name in ("_insert_sample", "_ingest_chunk") else "pimsim.launch"


def _service_attrs(args, kwargs, result) -> dict:
    timing = result.get("timing") or {}
    return {
        "trace_id": args[0].last_trace_id,
        "op": args[1],
        "queue_wait": float(timing.get("queue_wait_seconds", 0.0)),
        "execute": float(timing.get("execute_wall_seconds", 0.0)),
    }


def install(tracer: Tracer, *, server: bool = False) -> None:
    """Wrap every layer boundary the benchmark attributes time to.

    Wraps module-level names where callers look them up, so the original
    functions stay untouched for any code that imported them elsewhere.
    ``server`` adds the session entry points that tag worker-thread spans
    with the request's trace id.
    """
    from repro.coloring import partition
    from repro.core import api, dynamic, kernel_tc_fast
    from repro.graph import datasets
    from repro.pimsim import executor, system
    from repro.service import client, session

    w = tracer.wrap
    _patch(datasets, "get_dataset", lambda f: w("graph", f))
    _patch(partition.ColoringPartitioner, "assign_arrays", lambda f: w("coloring", f, _routed))
    for module in (kernel_tc_fast, dynamic):
        _patch(module, "orient_and_sort", lambda f: w("core.orient", f, _oriented_edges))
        _patch(module, "build_region_index", lambda f: w("core.region", f))
        _patch(module, "_count_forward_sparse", lambda f: w("core.arith", f, _edges_arg))
    _patch(kernel_tc_fast, "fast_count", lambda f: w("core.charge", f))
    _patch(kernel_tc_fast.TriangleCountKernel, "run", lambda f: w("core.kernel", f))
    for cls in (executor.SerialExecutor, executor.ThreadExecutor, executor.ProcessExecutor):
        if "map_dpus" in cls.__dict__:
            _patch(cls, "map_dpus", lambda f: w(_map_layer, f, _dpu_tasks))
    _patch(system.DpuSet, "launch", lambda f: w("pimsim.launch", f))
    _patch(api.PimTriangleCounter, "count", lambda f: w("core.host", f))
    _patch(dynamic.DynamicPimCounter, "apply_update", lambda f: w("dynamic.insert", f))
    _patch(dynamic.DynamicPimCounter, "apply_deletion", lambda f: w("dynamic.delete", f))
    _patch(client.ServiceClient, "request", lambda f: w("service", f, _service_attrs))
    if server:
        _patch(session.GraphSession, "submit", lambda f: _tag_trace(tracer, f))
        _patch(session.GraphSession, "count", lambda f: _tag_trace(tracer, f))


def _tag_trace(tracer: Tracer, fn):
    """Session entry points run on the event loop; the batch they queue runs
    on a worker thread, so the request's trace id is handed over through
    :attr:`Tracer.trace_id` (one request is in flight at a time)."""

    @functools.wraps(fn)
    async def wrapper(*args, trace_id=None, **kwargs):
        tracer.trace_id = trace_id
        return await fn(*args, trace_id=trace_id, **kwargs)

    return wrapper


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer, each span's duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.layer] += span.seconds - covered[span.span_id]
    return dict(out)
