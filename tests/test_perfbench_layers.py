"""The benchmark's traced layers still see the functions they wrap.

``perfbench/tracing.py::install`` wraps program functions by name.  If one is
renamed, the wrapper is installed on a name nothing calls and that layer's
per-layer time silently reads zero; these tests fail instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import PimTriangleCounter
from repro.core.dynamic import DynamicPimCounter
from repro.graph import get_dataset
from repro.graph.coo import COOGraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer(monkeypatch):
    """A tracer installed for this test only: every patch ``install`` makes
    goes through ``monkeypatch``, which restores the originals afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)

    def patch(owner, name, wrapper_factory):
        monkeypatch.setattr(owner, name, wrapper_factory(getattr(owner, name)))

    monkeypatch.setattr(tracing, "_patch", patch)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    return tracer


def _layers(tracer) -> set[str]:
    return {span.layer for span in tracer.spans}


def test_static_count_records_every_layer(tracer):
    graph = get_dataset("wikipedia", "tiny")
    result = PimTriangleCounter(num_colors=4, seed=1).count(graph)
    assert result.estimate == 1368
    assert {
        "coloring", "core.orient", "core.region", "core.arith", "core.charge",
        "core.kernel", "core.host", "pimsim.launch",
    } <= _layers(tracer)


def test_dynamic_update_records_every_layer(tracer):
    graph = get_dataset("wikipedia", "tiny")
    dyn = DynamicPimCounter(graph.num_nodes, num_colors=3, seed=1)
    dyn.apply_update(graph)
    dyn.apply_deletion(COOGraph(graph.src[:10], graph.dst[:10], graph.num_nodes))
    assert {
        "coloring", "core.orient", "core.region", "core.arith",
        "dynamic.insert", "dynamic.delete",
    } <= _layers(tracer)
