"""Stateful property test: the dynamic PIM counter vs a model graph.

Hypothesis drives arbitrary interleavings of edge-batch insertions and
deletions against :class:`DynamicPimCounter`, plain or with Misra-Gries
remapping, whole or in ingest chunks.  Batches are raw client batches:
repeats, both orientations, self-loops and, for inserts, already-resident
edges; the model is a set union or difference.  After every step the
counter's triangle count must equal the oracle's count of the model edge
set, its resident edge count the model's size, and every core's count a
from-scratch recount of its sample.  This is the fully-dynamic correctness
argument in executable form.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.core.dynamic import DynamicPimCounter
from repro.core.kernel_tc_fast import _count_forward_sparse
from repro.core.orient import orient_and_sort
from repro.graph.coo import COOGraph
from repro.graph.triangles import count_triangles

NUM_NODES = 14


def edge_batch():
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=NUM_NODES - 1),
            st.integers(min_value=0, max_value=NUM_NODES - 1),
        ),
        min_size=1,
        max_size=10,
    )


class DynamicCounterMachine(RuleBasedStateMachine):
    @initialize(
        colors=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 50),
        misra_gries=st.booleans(),
        batch_edges=st.sampled_from([None, 1, 3]),
    )
    def setup(self, colors, seed, misra_gries, batch_edges):
        mg = dict(misra_gries_k=8, misra_gries_t=2) if misra_gries else {}
        self.counter = DynamicPimCounter(
            NUM_NODES, num_colors=colors, seed=seed, batch_edges=batch_edges, **mg
        )
        self.model: set[tuple[int, int]] = set()

    def _model_graph(self) -> COOGraph:
        if not self.model:
            return COOGraph.from_edges([], num_nodes=NUM_NODES)
        return COOGraph.from_edges(sorted(self.model), num_nodes=NUM_NODES)

    @rule(edges=edge_batch())
    def insert(self, edges):
        self.model |= {(min(u, v), max(u, v)) for u, v in edges if u != v}
        self.counter.apply_update(COOGraph.from_edges(edges, num_nodes=NUM_NODES))

    @rule(edges=edge_batch())
    def delete(self, edges):
        self.model -= {(min(u, v), max(u, v)) for u, v in edges}
        self.counter.apply_deletion(COOGraph.from_edges(edges, num_nodes=NUM_NODES))

    @invariant()
    def count_matches_oracle(self):
        if not hasattr(self, "counter"):
            return
        assert self.counter.triangles == count_triangles(self._model_graph())

    @invariant()
    def edges_match_model(self):
        if not hasattr(self, "counter"):
            return
        assert self.counter.cumulative_edges == len(self.model)

    @invariant()
    def core_counts_match_recount(self):
        if not hasattr(self, "counter"):
            return
        for d, raw in enumerate(self.counter._raw_counts):
            u, v, _ = orient_and_sort(*self.counter._core_sample(d))
            assert raw == _count_forward_sparse(u, v, NUM_NODES)

    @invariant()
    def time_never_regresses(self):
        if not hasattr(self, "counter"):
            return
        assert self.counter.cumulative_seconds >= 0.0


DynamicCounterMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestDynamicCounterStateful = DynamicCounterMachine.TestCase
