"""Edge orientation and lexicographic sorting — the DPU kernel's first steps.

Paper Sec. 3.4: before counting, each PIM core orders its sample so that every
edge satisfies ``u < v`` and the edge list is sorted under

    ``(u, v) < (w, z)  <=>  u < w  or  (u == w and v < z)``

After this step the sample is exactly the "forward adjacency in COO clothing"
of Fig. 2: contiguous regions of equal first node, second nodes ascending.

The functions here perform the transformation with NumPy and return the
operation counts a C kernel doing the same work would incur, which the
:class:`~repro.core.kernel_tc_fast.TriangleCountKernel` charges to the DPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OrientStats", "orient_and_sort"]


@dataclass(frozen=True)
class OrientStats:
    """Work performed by the orient + sort preparation pass."""

    edges: int
    #: Comparison-ish steps of the in-MRAM merge sort: ``m * ceil(log2 m)``.
    sort_steps: int
    #: Full read+write passes over the sample the merge sort performs in MRAM
    #: (WRAM-sized runs are pre-sorted in scratchpad, then merged).
    mram_passes: int


def orient_and_sort(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    wram_run_edges: int = 2048,
    drop_self_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray, OrientStats]:
    """Orient every edge ``u < v`` and sort lexicographically.

    The lexicographic order is one ``np.sort`` of packed int64 keys
    ``u << b | v``, with ``b`` the bit length of the largest ``v``, unpacked
    by shift and mask.  Sorted values do not depend on stability, so the
    arrays equal a ``lexsort`` element by element, duplicates included, and
    keep the input dtype.  Samples whose keys would not fit in int64 (or
    with negative ids) fall back to ``lexsort``.

    Parameters
    ----------
    src, dst:
        The DPU's edge sample (any orientation, possibly with self-loops if
        the input graph was not preprocessed).
    wram_run_edges:
        Edges that fit in one tasklet's WRAM sort buffer; determines how many
        MRAM merge passes the modeled sort needs.

    Returns
    -------
    (u, v, stats):
        Sorted oriented arrays plus the work accounting.
    """
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    if drop_self_loops:
        keep = u != v
        u, v = u[keep], v[keep]
    m = int(u.size)
    if m:
        u, v = _sort_pairs(u, v)
    if m > 1:
        sort_steps = int(m * np.ceil(np.log2(m)))
        runs = max(1, int(np.ceil(m / max(1, wram_run_edges))))
        mram_passes = 1 + int(np.ceil(np.log2(runs))) if runs > 1 else 1
    else:
        sort_steps = 0
        mram_passes = 1 if m else 0
    return u, v, OrientStats(edges=m, sort_steps=sort_steps, mram_passes=mram_passes)


def _sort_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` pairs (``u <= v``, non-empty) in lexicographic order."""
    b = int(v.max()).bit_length()
    if int(u.min()) < 0 or (int(u.max()) + 1) << b > 1 << 63:
        order = np.lexsort((v, u))
        return u[order], v[order]
    keys = np.sort((u.astype(np.int64) << b) | v.astype(np.int64, copy=False))
    return (keys >> b).astype(u.dtype), (keys & ((1 << b) - 1)).astype(v.dtype)
