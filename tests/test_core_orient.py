"""Orient + lexicographic sort (the DPU kernel's preparation pass)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orient import orient_and_sort

from conftest import edge_list_strategy


class TestOrientAndSort:
    def test_orientation(self):
        u, v, _ = orient_and_sort(np.array([5, 1]), np.array([2, 7]))
        assert np.all(u < v)

    def test_lexicographic_order(self):
        src = np.array([3, 1, 3, 2])
        dst = np.array([0, 5, 4, 9])
        u, v, _ = orient_and_sort(src, dst)
        keys = list(zip(u.tolist(), v.tolist()))
        assert keys == sorted(keys)

    def test_drops_self_loops(self):
        u, v, stats = orient_and_sort(np.array([1, 2]), np.array([1, 3]))
        assert u.size == 1
        assert stats.edges == 1

    def test_keeps_self_loops_when_asked(self):
        u, v, _ = orient_and_sort(
            np.array([1, 2]), np.array([1, 3]), drop_self_loops=False
        )
        assert u.size == 2

    def test_empty(self):
        u, v, stats = orient_and_sort(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert u.size == 0
        assert stats.sort_steps == 0
        assert stats.mram_passes == 0

    def test_single_edge_stats(self):
        _, _, stats = orient_and_sort(np.array([1]), np.array([0]))
        assert stats.sort_steps == 0
        assert stats.mram_passes == 1

    def test_sort_steps_nlogn(self):
        m = 1024
        src = np.arange(m)
        dst = np.arange(m) + 1
        _, _, stats = orient_and_sort(src, dst)
        assert stats.sort_steps == m * 10  # log2(1024) = 10

    def test_more_passes_for_smaller_wram(self):
        src = np.arange(10_000)
        dst = np.arange(10_000) + 1
        _, _, big = orient_and_sort(src, dst, wram_run_edges=4096)
        _, _, small = orient_and_sort(src, dst, wram_run_edges=64)
        assert small.mram_passes > big.mram_passes

    @settings(max_examples=30, deadline=None)
    @given(g=edge_list_strategy())
    def test_preserves_undirected_multiset(self, g):
        u, v, _ = orient_and_sort(g.src, g.dst)
        n = g.num_nodes
        got = sorted((u * n + v).tolist())
        lo = np.minimum(g.src, g.dst)
        hi = np.maximum(g.src, g.dst)
        keep = lo != hi
        expected = sorted((lo[keep] * n + hi[keep]).tolist())
        assert got == expected


def _lexsort_reference(src, dst, drop_self_loops=True):
    """The lexsort formulation the packed-key sort must reproduce."""
    u, v = np.minimum(src, dst), np.maximum(src, dst)
    if drop_self_loops:
        keep = u != v
        u, v = u[keep], v[keep]
    order = np.lexsort((v, u))
    return u[order], v[order]


def _ids(top: int):
    """Edge columns over ``[0, top)``, ids clustered near both ends so
    duplicates, self-loops and ids near ``top`` all occur."""
    ends = st.one_of(
        st.integers(0, 6), st.integers(max(0, top - 6), top - 1), st.integers(0, top - 1)
    )
    return st.lists(st.tuples(ends, ends), max_size=60)


class TestKeySortEqualsLexsort:
    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.one_of(_ids(2**31), _ids(64)),
        dtype=st.sampled_from([np.int32, np.int64]),
        drop=st.booleans(),
    )
    def test_matches_lexsort(self, edges, dtype, drop):
        src = np.array([a for a, _ in edges], dtype=dtype)
        dst = np.array([b for _, b in edges], dtype=dtype)
        u, v, stats = orient_and_sort(src, dst, drop_self_loops=drop)
        ru, rv = _lexsort_reference(src, dst, drop)
        assert u.dtype == ru.dtype and v.dtype == rv.dtype
        assert np.array_equal(u, ru) and np.array_equal(v, rv)
        assert stats.edges == ru.size

    @pytest.mark.parametrize(
        "src, dst",
        [
            ([], []),
            ([7], [3]),
            ([2**31 - 1, 0], [2**31 - 2, 2**31 - 1]),
            # Keys that do not fit in int64, and negative ids: lexsort path.
            ([2**40, 5, 2**40], [2**41, 2**40, 2**41]),
            ([-3, 4, -3], [2, -1, 2]),
        ],
    )
    def test_edge_cases_match_lexsort(self, src, dst):
        src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
        u, v, _ = orient_and_sort(src, dst)
        ru, rv = _lexsort_reference(src, dst)
        assert np.array_equal(u, ru) and np.array_equal(v, rv)
