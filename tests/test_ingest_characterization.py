"""Characterization of the default (``batch_edges=None``) ingest path.

Pins, with ``==``, every simulated output the default sample-creation pass
produces — estimates, clock phases, trace events, per-DPU counts, kernel
charges and the imbalance ledger's per-DPU columns — plus the rounds of a
``DynamicPimCounter`` insert/delete sequence.  The expected values live in
``golden/ingest_default.json`` and were generated from the two-pass
implementation that the single chunked ingest loop replaced, so this file
proves the default path kept every number bit for bit.

Regenerate the golden file only for a deliberate cost-model change::

    PYTHONPATH=src python tests/test_ingest_characterization.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro import PimTriangleCounter
from repro.core.dynamic import DynamicPimCounter
from repro.core.host import PimTcOptions
from repro.graph.coo import COOGraph
from repro.graph.datasets import get_dataset

GOLDEN = Path(__file__).with_name("golden") / "ingest_default.json"

GRAPH = ("humanjung", "tiny")
NUM_COLORS = 4
SEED = 3

PIPELINE_CASES = {
    "defaults": {},
    "misra_gries": {"misra_gries_k": 64, "misra_gries_t": 8},
    "reservoir": {"reservoir_capacity": 300},
    "transfer_batches": {"transfer_batch_edges": 200},
    "uniform": {"uniform_p": 0.5},
}

LEDGER_COLUMNS = (
    "edges_routed",
    "edges_stored",
    "merge_steps",
    "instructions",
    "mram_bytes",
    "xfer_bytes",
    "insert_seconds",
    "count_seconds",
    "heavy_nodes",
    "heavy_node_multiplicity",
    "heavy_node_remapped",
)

DYNAMIC_CASES = {
    "plain": {},
    "misra_gries": {"misra_gries_k": 64, "misra_gries_t": 8},
}


def _json(value):
    """Normalize through JSON so tuples/ndarrays compare like the golden file."""
    return json.loads(json.dumps(value))


def _pipeline_snapshot(result) -> dict:
    ledger = result.imbalance
    snap = {
        "estimate": float(result.estimate),
        "phases": {k: float(v) for k, v in result.clock.phases.items()},
        "trace": [
            [e.phase, e.kind, float(e.seconds), int(e.payload_bytes), e.detail]
            for e in result.trace.events
        ],
        "per_dpu_counts": result.per_dpu_counts.tolist(),
        "kernel": asdict(result.kernel),
        "ledger": {col: getattr(ledger, col).tolist() for col in LEDGER_COLUMNS},
        "ingest_batches": int(result.meta["ingest_batches"]),
        "peak_routed_bytes": int(result.meta["peak_routed_bytes"]),
    }
    local = getattr(result, "local_estimates", None)
    if local is not None:
        snap["local_estimates"] = np.asarray(local).tolist()
    return _json(snap)


def _run_pipeline(case: str, mode: str, graph: COOGraph | None = None) -> dict:
    graph = graph if graph is not None else get_dataset(*GRAPH)
    # Explicit options: the counter's env-var defaults (REPRO_BATCH_EDGES,
    # REPRO_PARTITIONER, ...) must not steer the run off the default path.
    options = PimTcOptions(num_colors=NUM_COLORS, seed=SEED, **PIPELINE_CASES[case])
    counter = PimTriangleCounter(options=options)
    run = counter.count if mode == "count" else counter.count_local
    return _pipeline_snapshot(run(graph))


def _empty_graph() -> COOGraph:
    return COOGraph.from_edges([], num_nodes=4)


def _dynamic_batches(graph: COOGraph) -> list[tuple[str, COOGraph]]:
    """Inserts, an empty insert, a partial delete and a delete of absent edges."""

    def part(lo: int, hi: int) -> COOGraph:
        return COOGraph(graph.src[lo:hi], graph.dst[lo:hi], num_nodes=graph.num_nodes)

    m = graph.num_edges
    return [
        ("insert", part(0, m // 3)),
        ("insert", part(m // 3, 2 * m // 3)),
        ("insert", part(0, 0)),
        ("delete", part(m // 6, m // 3)),
        ("insert", part(2 * m // 3, m)),
        ("delete", part(m // 6, m // 4)),
    ]


def _run_dynamic(case: str) -> dict:
    graph = get_dataset(*GRAPH)
    dyn = DynamicPimCounter(
        graph.num_nodes, num_colors=3, seed=SEED, **DYNAMIC_CASES[case]
    )
    rounds = []
    for op, batch in _dynamic_batches(graph):
        step = dyn.apply_update if op == "insert" else dyn.apply_deletion
        rounds.append(step(batch).to_dict())
    return _json(
        {
            "phases": {k: float(v) for k, v in dyn.clock.phases.items()},
            "rounds": rounds,
        }
    )


def _generate() -> dict:
    return {
        "pipeline": {
            f"{mode}/{case}": _run_pipeline(case, mode)
            for mode in ("count", "count_local")
            for case in PIPELINE_CASES
        },
        "empty": _run_pipeline("defaults", "count", _empty_graph()),
        "dynamic": {case: _run_dynamic(case) for case in DYNAMIC_CASES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


class TestDefaultPipeline:
    @pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
    @pytest.mark.parametrize("mode", ["count", "count_local"])
    def test_outputs_bit_identical(self, golden, mode, case):
        assert _run_pipeline(case, mode) == golden["pipeline"][f"{mode}/{case}"]

    def test_empty_graph_is_one_chunk(self, golden):
        snap = _run_pipeline("defaults", "count", _empty_graph())
        assert snap == golden["empty"]
        # One scatter of nothing plus one insert launch on every core.
        assert snap["ingest_batches"] == 1
        assert snap["phases"]["sample_creation"] == 6.352e-05
        kinds = [kind for phase, kind, *_ in snap["trace"] if phase == "sample_creation"]
        assert kinds == ["scatter", "launch"]


class TestDefaultDynamic:
    @pytest.mark.parametrize("case", sorted(DYNAMIC_CASES))
    def test_rounds_bit_identical(self, golden, case):
        assert _run_dynamic(case) == golden["dynamic"][case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(_generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
