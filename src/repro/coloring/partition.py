"""Edge partitioning across PIM cores via vertex coloring (paper Sec. 3.1).

The host colors both endpoints of every edge with the universal hash
``h_C`` and routes a copy of the edge to each of the ``C`` compatible PIM
cores (one per choice of the triplet's third color).  The partition guarantees

* every triangle with >= 2 distinct node colors is counted by exactly one core,
* every monochromatic triangle is counted by exactly ``C`` cores, and the
  single-color-triplet core of that color counts *only* such triangles, making
  the final correction (subtract ``C-1`` times those counts) exact.

The assignment is fully vectorized: one LUT row gather per edge and one stable
grouping sort (a radix sort on narrow core-id keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConfigurationError
from ..common.hashing import ColorHash
from ..common.validation import check_positive
from ..graph.coo import COOGraph
from .triplets import TripletTable

__all__ = [
    "EdgePartition",
    "ColoringPartitioner",
    "DegreePartitioner",
    "PARTITIONER_STRATEGIES",
    "make_partitioner",
]

#: Strategy names accepted by :func:`make_partitioner` and the pipeline's
#: ``partitioner`` option ("auto" resolves to one of the other two via
#: :mod:`repro.coloring.autotune` before a partitioner is built).
PARTITIONER_STRATEGIES = ("hash", "degree", "auto")


@dataclass(frozen=True)
class EdgePartition:
    """Result of routing one edge batch to the PIM cores.

    Attributes
    ----------
    per_dpu:
        List (length = #triplets) of ``(src, dst)`` int64 array pairs.
    counts:
        Edges routed to each core for this batch.
    edges_in:
        Size of the input batch (before the C-fold duplication).
    """

    per_dpu: list[tuple[np.ndarray, np.ndarray]]
    counts: np.ndarray
    edges_in: int

    @property
    def total_routed(self) -> int:
        return int(self.counts.sum())


@dataclass
class ColoringPartitioner:
    """Stateful partitioner: one hash function, one triplet table.

    The hash function is drawn once (like the host process does at startup) so
    dynamic-graph batches color nodes consistently across updates.
    """

    num_colors: int
    rng: np.random.Generator
    color_hash: ColorHash = field(init=False)
    table: TripletTable = field(init=False)

    def __post_init__(self) -> None:
        self.num_colors = check_positive("num_colors", self.num_colors)
        self.color_hash = ColorHash.random(self.num_colors, self.rng)
        self.table = TripletTable.build(self.num_colors)

    @property
    def num_dpus(self) -> int:
        return self.table.num_dpus

    def node_colors(self, nodes: np.ndarray) -> np.ndarray:
        return self.color_hash.color_array(nodes)

    def assign(self, graph: COOGraph) -> EdgePartition:
        """Route every edge of ``graph`` to its ``C`` compatible PIM cores."""
        return self.assign_arrays(graph.src, graph.dst)

    def assign_arrays(self, src: np.ndarray, dst: np.ndarray) -> EdgePartition:
        c = self.num_colors
        t = self.table.num_dpus
        m = int(src.size)
        if m == 0:
            empty = [
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
                for _ in range(t)
            ]
            return EdgePartition(per_dpu=empty, counts=np.zeros(t, dtype=np.int64), edges_in=0)
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo >= 0 and hi < 2 * m:
            # No more ids than endpoints: hash each id in the range once.
            colors = self.node_colors(np.arange(hi + 1, dtype=np.int64))
            cu, cv = colors[src], colors[dst]
        else:
            cu, cv = self.node_colors(src), self.node_colors(dst)
        # Row ``cu * c + cv`` of the LUT lists the target core of the edge's
        # copy for each third color x.  Core ids are stored in the narrowest
        # unsigned type that holds them (uint8 or uint16 for any paper-sized
        # system), on which NumPy's stable argsort is a radix sort: the same
        # permutation as on int64 ids, so each core's records keep their
        # arrival order (copy-major, then edge order).
        pair = cu * c + cv
        cores = self.table.lut.reshape(c * c, c).astype(np.min_scalar_type(t - 1))
        flat_ids = np.ascontiguousarray(cores[pair].T).ravel()
        order = np.argsort(flat_ids, kind="stable")
        src64 = src.astype(np.int64, copy=False)
        dst64 = dst.astype(np.int64, copy=False)
        if lo >= 0 and hi < 1 << 31:
            # One gather moves both endpoints, packed into one int64.
            packed = np.tile((src64 << 32) | dst64, c)[order]
            flat_src, flat_dst = packed >> 32, packed & 0xFFFFFFFF
        else:
            flat_src, flat_dst = np.tile(src64, c)[order], np.tile(dst64, c)[order]
        # Records per core, from the edges per color pair.
        pair_edges = np.bincount(pair, minlength=c * c)
        counts = np.bincount(
            cores.ravel(), weights=np.repeat(pair_edges, c), minlength=t
        ).astype(np.int64)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        per_dpu = [
            (flat_src[bounds[i] : bounds[i + 1]], flat_dst[bounds[i] : bounds[i + 1]])
            for i in range(t)
        ]
        return EdgePartition(per_dpu=per_dpu, counts=counts, edges_in=m)

    def mono_mask(self) -> np.ndarray:
        return self.table.mono_mask()

    #: Strategy tag surfaced in result meta, bench artifacts and the ledger.
    strategy = "hash"

    def expected_max_edges_per_dpu(self, num_edges: int) -> float:
        """Paper Sec. 4.5: the maximum expected per-core load is ``(6 / C**2) * |E|``.

        Three-distinct-color triplets carry the most edges; an edge lands on a
        given such triplet with probability ``6 / C**3`` per copy summed over
        its ``C`` copies... equivalently the closed form the paper uses.

        Caveat: the formula assumes endpoint colors are *uniform*, which holds
        for the universal hash but not for skewed degree distributions routed
        through :class:`DegreePartitioner` — that subclass overrides this with
        a mass-aware estimate, and auto-tuning dispatches through the override
        rather than reasoning from the uniform closed form.
        """
        return 6.0 * num_edges / (self.num_colors**2)


@dataclass
class DegreePartitioner(ColoringPartitioner):
    """Degree-based coloring (Kolountzakis et al.): place hubs deliberately.

    The long tail of low-degree nodes keeps the universal hash coloring, so
    batches remain consistent and the tail stays uniform.  The few hot nodes
    (degree >= ``hot_degree_factor`` x average) are pulled out and placed
    greedily: sorted by descending degree, each is moved to the color that
    minimizes the resulting *maximum per-triplet edge load*, evaluated
    exactly and incrementally against the loads the hashed tail (plus
    already-placed hubs) left behind.  This both spreads hubs across colors
    and steers their mass onto the currently lightest triplets, so it also
    corrects residual tail imbalance the hash produced.

    Counts are unaffected: the monochromatic-correction argument only needs
    node colors to form a partition, not any particular one, so any coloring
    yields the same exact triangle count (pinned by the differential grid).

    Call :meth:`fit` with the full graph before routing batches;
    :meth:`assign` auto-fits on its input for convenience.
    """

    hot_degree_factor: float = 4.0
    max_hot_nodes: int = 4096
    _hot_nodes: np.ndarray = field(init=False, repr=False)
    _hot_colors: np.ndarray = field(init=False, repr=False)
    _color_mass: np.ndarray | None = field(init=False, repr=False, default=None)

    strategy = "degree"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hot_degree_factor <= 0:
            raise ConfigurationError("hot_degree_factor must be positive")
        self.max_hot_nodes = check_positive("max_hot_nodes", self.max_hot_nodes)
        self._hot_nodes = np.empty(0, dtype=np.int64)
        self._hot_colors = np.empty(0, dtype=np.int64)

    @property
    def fitted(self) -> bool:
        return self._color_mass is not None

    @property
    def num_hot_nodes(self) -> int:
        return int(self._hot_nodes.size)

    def _triplet_loads(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """Edges routed to each triplet for endpoint-color arrays (cu, cv)."""
        loads = np.zeros(self.table.num_dpus, dtype=np.int64)
        for x in range(self.num_colors):
            loads += np.bincount(
                self.table.lut[cu, cv, np.int64(x)], minlength=self.table.num_dpus
            )
        return loads

    def fit(self, graph: COOGraph) -> "DegreePartitioner":
        """Pick hot-node colors from ``graph``'s degree distribution."""
        deg = graph.degrees().astype(np.int64, copy=False)
        present = deg > 0
        empty = np.empty(0, dtype=np.int64)
        if not present.any():
            self._hot_nodes, self._hot_colors = empty, empty
            self._color_mass = np.zeros(self.num_colors, dtype=np.float64)
            return self
        avg = deg[present].mean()
        threshold = max(self.hot_degree_factor * avg, avg + 1.0)
        hot = np.nonzero(deg >= threshold)[0].astype(np.int64)
        if hot.size > self.max_hot_nodes:
            keep = np.argsort(deg[hot], kind="stable")[::-1][: self.max_hot_nodes]
            hot = hot[keep]
        # Heaviest first; ties broken by node id for determinism.
        hot = hot[np.lexsort((hot, -deg[hot]))]
        colors = self.color_hash.color_array(np.arange(deg.size, dtype=np.int64))
        if hot.size:
            src = graph.src.astype(np.int64, copy=False)
            dst = graph.dst.astype(np.int64, copy=False)
            loads = self._triplet_loads(colors[src], colors[dst]).astype(np.float64)
            # Incidence lists: every edge appears once per endpoint.
            ends = np.concatenate((src, dst))
            others = np.concatenate((dst, src))
            order = np.argsort(ends, kind="stable")
            ends, others = ends[order], others[order]
            for v in hot.tolist():
                lo, hi = np.searchsorted(ends, [v, v + 1])
                nbr_cols = colors[others[lo:hi]]
                # lut[c, nbr_cols] rows enumerate the third color, so the
                # flattened bincount is this node's per-triplet contribution.
                removed = np.bincount(
                    self.table.lut[colors[v], nbr_cols].ravel(),
                    minlength=self.table.num_dpus,
                )
                best = None
                for c in range(self.num_colors):
                    added = np.bincount(
                        self.table.lut[c, nbr_cols].ravel(),
                        minlength=self.table.num_dpus,
                    )
                    cand = loads - removed + added
                    score = (float(cand.max()), float(np.square(cand).sum()))
                    if best is None or score < best[0]:
                        best = (score, c, cand)
                colors[v] = best[1]
                loads = best[2]
        # node_colors binary-searches the hot set, so store it id-sorted.
        hot = np.sort(hot)
        self._hot_nodes = hot
        self._hot_colors = colors[hot]
        self._color_mass = np.bincount(
            colors, weights=deg.astype(np.float64), minlength=self.num_colors
        )
        return self

    def node_colors(self, nodes: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise ConfigurationError(
                "DegreePartitioner used before fit(); call fit(graph) first"
            )
        colors = self.color_hash.color_array(nodes)
        if self._hot_nodes.size:
            nodes64 = nodes.astype(np.int64, copy=False)
            idx = np.searchsorted(self._hot_nodes, nodes64)
            idx = np.minimum(idx, self._hot_nodes.size - 1)
            mask = self._hot_nodes[idx] == nodes64
            colors[mask] = self._hot_colors[idx[mask]]
        return colors

    def assign(self, graph: COOGraph) -> EdgePartition:
        if not self.fitted:
            self.fit(graph)
        return super().assign(graph)

    def expected_max_edges_per_dpu(self, num_edges: int) -> float:
        """Mass-aware load estimate: fold per-color endpoint-mass fractions
        through the triplet table instead of assuming uniform colors.

        Before :meth:`fit` (no mass information yet) this falls back to the
        uniform closed form of the base class.
        """
        if not self.fitted or self._color_mass.sum() <= 0:
            return super().expected_max_edges_per_dpu(num_edges)
        frac = self._color_mass / self._color_mass.sum()
        # Expected edges with endpoint colors {a, b} (unordered):
        pair = np.outer(frac, frac) * num_edges
        best = 0.0
        for triplet in self.table.triplets:
            colors = sorted(set(int(c) for c in triplet))
            load = 0.0
            for i, a in enumerate(colors):
                for b in colors[i:]:
                    load += pair[a, b] if a == b else 2.0 * pair[a, b]
            best = max(best, load)
        return float(best)


def make_partitioner(
    strategy: str, num_colors: int, rng: np.random.Generator
) -> ColoringPartitioner:
    """Build the partitioner for a resolved strategy ("auto" must already be
    resolved to "hash" or "degree" by :func:`repro.coloring.autotune.auto_tune`).
    """
    if strategy == "hash":
        return ColoringPartitioner(num_colors, rng)
    if strategy == "degree":
        return DegreePartitioner(num_colors, rng)
    raise ConfigurationError(
        f"unknown partitioner strategy {strategy!r}; expected 'hash' or 'degree'"
    )
