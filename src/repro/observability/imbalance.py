"""Per-DPU work ledger and skew statistics (the paper's load-imbalance story).

The paper's central performance observation (Sec. 4.3, Fig. 5) is that a
handful of *straggler* PIM cores — the ones whose samples contain the
high-degree nodes — dominate the Triangle Count phase until the Misra-Gries
remap (Sec. 3.5) empties those nodes' forward adjacency lists.  This module
turns the quantities the simulator already tracks into that diagnosis:

* :class:`ImbalanceLedger` — one column per work dimension (edges routed,
  merge/intersection steps, MRAM bytes, host<->core transfer bytes,
  simulated seconds per phase), one row per DPU, keyed by the DPU's color
  triplet;
* :func:`skew_stats` — max/mean, p99/p50, and coefficient of variation of
  any per-DPU vector (the numbers a regression gate can hold steady);
* :meth:`ImbalanceLedger.stragglers` — the top-k table attributing each
  straggler to its triplet and its heaviest sampled node, flagged when that
  node sits in the Misra-Gries remap table.

**Observation only.**  :func:`collect_ledger` reads DPU state through
uncharged paths (``mram.load(count_read=False)``, the lifetime charge
ledgers) and never touches the :class:`~repro.pimsim.kernel.SimClock` or the
:class:`~repro.pimsim.trace.Trace` — collection is invisible to every
simulated number, which the differential parity tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coloring.triplets import TripletTable
from ..pimsim.system import DpuSet

__all__ = ["ImbalanceLedger", "SkewStats", "skew_stats", "collect_ledger"]

#: Ledger columns eligible for skew statistics, in report order.
SKEW_METRICS: tuple[str, ...] = (
    "edges_routed",
    "merge_steps",
    "mram_bytes",
    "count_seconds",
    "insert_seconds",
    "instructions",
)


@dataclass(frozen=True)
class SkewStats:
    """Skew summary of one per-DPU work vector."""

    max: float
    mean: float
    max_over_mean: float
    p50: float
    p99: float
    p99_over_p50: float
    #: Coefficient of variation: population std / mean (0 = perfectly even).
    cv: float

    def to_dict(self) -> dict:
        return {
            "max": self.max,
            "mean": self.mean,
            "max_over_mean": self.max_over_mean,
            "p50": self.p50,
            "p99": self.p99,
            "p99_over_p50": self.p99_over_p50,
            "cv": self.cv,
        }


def skew_stats(values: np.ndarray) -> SkewStats:
    """Skew statistics of a per-DPU work vector.

    Ratios are defined as 1.0 (no skew) when the denominator is zero, so an
    all-idle phase reads as perfectly balanced rather than dividing by zero.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return SkewStats(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    vmax = float(arr.max())
    mean = float(arr.mean())
    p50 = float(np.percentile(arr, 50))
    p99 = float(np.percentile(arr, 99))
    return SkewStats(
        max=vmax,
        mean=mean,
        max_over_mean=vmax / mean if mean > 0 else 1.0,
        p50=p50,
        p99=p99,
        p99_over_p50=p99 / p50 if p50 > 0 else 1.0,
        cv=float(arr.std() / mean) if mean > 0 else 0.0,
    )


@dataclass
class ImbalanceLedger:
    """Columnar per-DPU work record of one pipeline run.

    Every column has one entry per allocated PIM core (row index = DPU id).
    All values are engine-invariant (derived from charge ledgers, partition
    counts and simulated seconds), so the ledger — like the metrics
    snapshot — is bit-identical across the serial/thread/process engines.
    """

    num_colors: int
    #: ``(D, 3)`` color triplet per core (row index = DPU id).
    triplets: np.ndarray
    #: Distinct colors per triplet (1/2/3 — the paper's N/3N/6N load classes).
    kinds: np.ndarray
    edges_routed: np.ndarray
    #: Edges actually resident in the core's MRAM sample (post-reservoir).
    edges_stored: np.ndarray
    #: Merge/intersection steps charged by the counting kernel.
    merge_steps: np.ndarray
    #: Instructions charged over the core's lifetime (insert + count).
    instructions: np.ndarray
    #: MRAM DMA bytes moved over the core's lifetime.
    mram_bytes: np.ndarray
    #: Host<->core transfer payload bytes attributed to the core.
    xfer_bytes: np.ndarray
    #: Simulated seconds of the core's sample-insert work.
    insert_seconds: np.ndarray
    #: Simulated seconds of the core's counting-kernel execution.
    count_seconds: np.ndarray
    #: Most frequent node in the core's stored sample (-1 when empty).
    heavy_nodes: np.ndarray
    #: Occurrences of that node among the stored sample's endpoints.
    heavy_node_multiplicity: np.ndarray
    #: Whether that node sits in the broadcast Misra-Gries remap table.
    heavy_node_remapped: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def num_dpus(self) -> int:
        return int(self.edges_routed.size)

    def column(self, metric: str) -> np.ndarray:
        if metric not in SKEW_METRICS:
            raise KeyError(f"unknown imbalance metric {metric!r}; one of {SKEW_METRICS}")
        return getattr(self, metric)

    def skew(self, metric: str = "count_seconds") -> SkewStats:
        """Skew statistics of one work column."""
        return skew_stats(self.column(metric))

    def triplet_of(self, dpu: int) -> tuple[int, int, int]:
        i, j, k = self.triplets[dpu].tolist()
        return (i, j, k)

    def stragglers(self, metric: str = "count_seconds", k: int = 5) -> list[dict]:
        """Top-``k`` cores by one work column, heaviest first.

        Each row attributes the straggler: its color triplet (and load
        class), its share of the system-wide total, and the heaviest node of
        its stored sample with the remapped flag — the paper's diagnosis of
        *why* that core is slow.
        """
        values = self.column(metric).astype(np.float64)
        order = np.argsort(-values, kind="stable")[: max(0, int(k))]
        total = float(values.sum())
        rows = []
        for d in order.tolist():
            rows.append(
                {
                    "dpu": int(d),
                    "triplet": list(self.triplet_of(d)),
                    "distinct_colors": int(self.kinds[d]),
                    "metric": metric,
                    "value": float(values[d]),
                    "share": float(values[d] / total) if total > 0 else 0.0,
                    "edges_routed": int(self.edges_routed[d]),
                    "merge_steps": int(self.merge_steps[d]),
                    "heavy_node": int(self.heavy_nodes[d]),
                    "heavy_node_multiplicity": int(self.heavy_node_multiplicity[d]),
                    "heavy_node_remapped": bool(self.heavy_node_remapped[d]),
                }
            )
        return rows

    def to_dict(self, top_k: int = 8) -> dict:
        """JSON form: the run report's ``imbalance`` section."""
        return {
            "num_dpus": self.num_dpus,
            "num_colors": int(self.num_colors),
            "skew": {m: self.skew(m).to_dict() for m in SKEW_METRICS},
            "stragglers": self.stragglers(k=top_k),
            "per_dpu": {
                "triplet": self.triplets.tolist(),
                "distinct_colors": self.kinds.tolist(),
                "edges_routed": self.edges_routed.tolist(),
                "edges_stored": self.edges_stored.tolist(),
                "merge_steps": self.merge_steps.tolist(),
                "instructions": self.instructions.tolist(),
                "mram_bytes": self.mram_bytes.tolist(),
                "xfer_bytes": self.xfer_bytes.tolist(),
                "insert_seconds": self.insert_seconds.tolist(),
                "count_seconds": self.count_seconds.tolist(),
                "heavy_node": self.heavy_nodes.tolist(),
                "heavy_node_multiplicity": self.heavy_node_multiplicity.tolist(),
                "heavy_node_remapped": self.heavy_node_remapped.tolist(),
            },
            "meta": dict(self.meta),
        }


def _heaviest_node(src: np.ndarray, dst: np.ndarray) -> tuple[int, int]:
    """Most frequent endpoint of one core's stored sample (node, multiplicity).

    Ties break toward the smallest node ID (``argmax`` takes the first
    maximum of the id-indexed counts), keeping the ledger deterministic.
    """
    if src.size == 0:
        return -1, 0
    counts = np.bincount(np.concatenate([src, dst]))
    best = int(np.argmax(counts))
    return best, int(counts[best])


def collect_ledger(
    dpus: DpuSet,
    table: TripletTable,
    *,
    edges_routed: np.ndarray,
    seen: np.ndarray,
    capacity: int,
    insert_seconds: np.ndarray | None = None,
    remap_nodes: np.ndarray | None = None,
    dpu_of_triplet: np.ndarray | None = None,
) -> ImbalanceLedger:
    """Harvest the per-DPU work ledger from a finished (not yet freed) run.

    Must run after the counting launch and before ``dpus.free()``.  Reads
    only uncharged state — MRAM symbols via ``count_read=False``, the
    per-launch and lifetime charge ledgers, and the DpuSet's transfer-byte
    ledger — so harvesting adds no simulated time, no trace events, and no
    metric updates.

    ``dpu_of_triplet`` (triplet -> physical core, from between-batch
    rebalancing) keeps rows core-indexed: triplet labels and triplet-ordered
    inputs (``edges_routed``, ``seen``) are scattered onto the cores that
    actually hold them, so every row still describes one physical core.
    """
    d = len(dpus.dpus)
    merge_steps = np.zeros(d, dtype=np.int64)
    count_seconds = np.zeros(d, dtype=np.float64)
    instructions = np.zeros(d, dtype=np.float64)
    mram_bytes = np.zeros(d, dtype=np.int64)
    heavy = np.full(d, -1, dtype=np.int64)
    heavy_mult = np.zeros(d, dtype=np.int64)
    heavy_remapped = np.zeros(d, dtype=bool)
    remap_set = (
        set(np.asarray(remap_nodes).tolist()) if remap_nodes is not None else set()
    )
    for i, dpu in enumerate(dpus.dpus):
        # The per-launch ledger still holds the counting kernel's charges
        # (nothing resets them between the launch and the harvest).
        count_seconds[i] = dpu.compute_seconds()
        instructions[i] = float(dpu.lifetime_instructions)
        mram_bytes[i] = int(dpu.lifetime_dma_bytes)
        if dpu.mram.has("kernel_stats"):
            stats = dpu.mram.load("kernel_stats", count_read=False)
            if stats.size >= 3:
                merge_steps[i] = int(stats[2])
        if dpu.mram.has("sample_src"):
            s = dpu.mram.load("sample_src", count_read=False)
            t = dpu.mram.load("sample_dst", count_read=False)
            heavy[i], heavy_mult[i] = _heaviest_node(s, t)
            heavy_remapped[i] = heavy[i] in remap_set
    xfer = (
        dpus.dpu_xfer_bytes.copy()
        if dpus.dpu_xfer_bytes is not None
        else np.zeros(d, dtype=np.int64)
    )
    seen = np.asarray(seen, dtype=np.int64)
    triplets = table.triplets.copy()
    kinds = table.kind.copy()
    routed = np.asarray(edges_routed, dtype=np.int64).copy()
    stored = np.minimum(seen, int(capacity))
    if dpu_of_triplet is not None:
        perm = np.asarray(dpu_of_triplet, dtype=np.int64)
        triplets = np.empty_like(triplets)
        triplets[perm] = table.triplets
        kinds = np.empty_like(kinds)
        kinds[perm] = table.kind
        routed = np.zeros(d, dtype=np.int64)
        routed[perm] = np.asarray(edges_routed, dtype=np.int64)
        stored_in = stored
        stored = np.zeros(d, dtype=np.int64)
        stored[perm] = stored_in
    return ImbalanceLedger(
        num_colors=table.num_colors,
        triplets=triplets,
        kinds=kinds,
        edges_routed=routed,
        edges_stored=stored,
        merge_steps=merge_steps,
        instructions=instructions,
        mram_bytes=mram_bytes,
        xfer_bytes=xfer,
        insert_seconds=(
            np.asarray(insert_seconds, dtype=np.float64).copy()
            if insert_seconds is not None
            else np.zeros(d, dtype=np.float64)
        ),
        count_seconds=count_seconds,
        heavy_nodes=heavy,
        heavy_node_multiplicity=heavy_mult,
        heavy_node_remapped=heavy_remapped,
        meta={"reservoir_capacity": int(capacity)},
    )
