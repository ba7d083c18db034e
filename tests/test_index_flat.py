"""Tests for the flattened R*-tree traversal (FlatRStarTree).

The frozen form must answer every window query with exactly the ids the
pointer-based traversal streams — in the same candidate order, because
DB-LSH's budget truncation makes query results order-dependent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.flat import FlatRStarTree, concat_ranges
from repro.index.rstar import RStarTree, RTreeStats
from repro.index.str_build import build_flat_str


def _legacy_stream(tree, w_low, w_high):
    chunks = list(tree.window_query_iter(w_low, w_high))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


class TestConcatRanges:
    def test_empty(self):
        starts = np.empty(0, dtype=np.int64)
        assert concat_ranges(starts, starts).size == 0

    def test_mixed_ranges(self):
        starts = np.array([5, 0, 9], dtype=np.int64)
        ends = np.array([8, 0, 11], dtype=np.int64)
        assert concat_ranges(starts, ends).tolist() == [5, 6, 7, 9, 10]

    def test_single_range(self):
        out = concat_ranges(np.array([3], dtype=np.int64), np.array([7], dtype=np.int64))
        assert out.tolist() == [3, 4, 5, 6]


class TestFreeze:
    def test_freeze_preserves_contents(self, rng):
        points = rng.standard_normal((500, 4))
        tree = RStarTree.bulk_load(points, max_entries=8)
        flat = tree.freeze()
        assert len(flat) == 500
        assert flat.dim == 4
        assert flat.height == tree.height
        assert sorted(flat.all_ids().tolist()) == sorted(tree.all_ids().tolist())
        assert flat.num_leaves >= 500 // 8

    def test_empty_tree(self):
        flat = RStarTree(2).freeze()
        assert len(flat) == 0
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        assert flat.window_query(lo, hi).size == 0
        assert flat.window_count(lo, hi) == 0

    def test_single_leaf_root(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        flat = RStarTree.bulk_load(points, max_entries=8).freeze()
        out = flat.window_query(np.array([-0.5, -0.5]), np.array([1.5, 1.5]))
        assert sorted(out.tolist()) == [0, 1]

    def test_freeze_of_insert_built_tree(self, rng):
        points = rng.standard_normal((300, 3))
        tree = RStarTree(3, max_entries=8)
        for i, p in enumerate(points):
            tree.insert(i, p)
        flat = tree.freeze()
        for _ in range(10):
            center = rng.standard_normal(3)
            lo, hi = center - 1.0, center + 1.0
            assert np.array_equal(_legacy_stream(tree, lo, hi),
                                  flat.window_query(lo, hi))

    def test_freeze_is_a_snapshot(self, rng):
        points = rng.standard_normal((100, 3))
        tree = RStarTree.bulk_load(points, max_entries=8)
        flat = tree.freeze()
        tree.insert(100, np.zeros(3))
        # The snapshot still answers from the pre-insert state.
        assert len(flat) == 100
        assert 100 not in set(flat.all_ids().tolist())

    def test_bad_chunk_points(self, rng):
        tree = RStarTree.bulk_load(rng.standard_normal((50, 2)))
        with pytest.raises(ValueError, match="chunk_points"):
            FlatRStarTree(tree, chunk_points=0)

    def test_window_dim_mismatch(self, rng):
        flat = RStarTree.bulk_load(rng.standard_normal((50, 3))).freeze()
        with pytest.raises(ValueError, match="dimensionality"):
            list(flat.window_query_iter(np.zeros(2), np.ones(2)))


class TestTraversalEquivalence:
    @pytest.mark.parametrize("n,dim,max_entries", [
        (1, 3, 8), (40, 2, 4), (500, 4, 8), (3000, 6, 32),
    ])
    def test_same_ids_same_order_as_pointer_traversal(self, rng, n, dim, max_entries):
        points = rng.standard_normal((n, dim)) * 3.0
        tree = RStarTree.bulk_load(points, max_entries=max_entries)
        flat = tree.freeze()
        for _ in range(25):
            center = rng.standard_normal(dim) * 3.0
            half = rng.uniform(0.1, 4.0)
            lo, hi = center - half, center + half
            expected = _legacy_stream(tree, lo, hi)
            assert np.array_equal(expected, flat.window_query(lo, hi))

    def test_full_coverage_window(self, rng):
        points = rng.standard_normal((800, 5))
        tree = RStarTree.bulk_load(points, max_entries=16)
        flat = tree.freeze()
        lo, hi = points.min(axis=0) - 1.0, points.max(axis=0) + 1.0
        out = flat.window_query(lo, hi)
        assert out.shape[0] == 800
        assert np.array_equal(_legacy_stream(tree, lo, hi), out)

    def test_first_chunk_hint_changes_chunking_not_results(self, rng):
        points = rng.standard_normal((2000, 4))
        tree = RStarTree.bulk_load(points, max_entries=16)
        flat = tree.freeze()
        lo, hi = points.min(axis=0), points.max(axis=0)
        small = list(flat.window_query_iter(lo, hi, first_chunk=8))
        large = list(flat.window_query_iter(lo, hi, first_chunk=10**6))
        assert len(small) > len(large)
        assert np.array_equal(np.concatenate(small), np.concatenate(large))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 300),
        dim=st.integers(1, 5),
        half=st.floats(0.05, 5.0),
    )
    def test_property_equivalence(self, seed, n, dim, half):
        gen = np.random.default_rng(seed)
        points = gen.standard_normal((n, dim)) * 2.0
        tree = RStarTree.bulk_load(points, max_entries=8)
        flat = tree.freeze()
        center = gen.standard_normal(dim)
        lo, hi = center - half, center + half
        assert np.array_equal(_legacy_stream(tree, lo, hi),
                              flat.window_query(lo, hi))
        assert flat.window_count(lo, hi) == tree.window_count(lo, hi)


def _brute_force(points, lo, hi):
    """Ids of the points inside the inclusive box ``[lo, hi]``."""
    return np.flatnonzero(((points >= lo) & (points <= hi)).all(axis=1))


class TestBitmaskKernel:
    """The packed-bitmask window test against an inclusive brute force.

    Points and window bounds sit on an integer lattice, so many points lie
    exactly on a window face and zero-width windows hit points: the
    negated ``>`` / ``<`` comparisons must keep the faces inclusive.  Odd
    and even dimensions exercise the ``uint16`` and ``uint32`` row views.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 400),
        dim=st.integers(1, 6),
        built=st.sampled_from(["str", "insert"]),
        first_chunk=st.sampled_from([1, 10**6, None]),
        width=st.integers(0, 3),
    )
    def test_matches_brute_force(self, seed, n, dim, built, first_chunk, width):
        gen = np.random.default_rng(seed)
        points = gen.integers(-3, 4, size=(n, dim)).astype(np.float64)
        if built == "str":
            reference = RStarTree.bulk_load(points, max_entries=6)
            flat = build_flat_str(points, max_entries=6)
        else:  # insertion splits leave leaves of uneven sizes
            reference = RStarTree(dim, max_entries=6)
            for i, p in enumerate(points):
                reference.insert(i, p)
            flat = reference.freeze()
        for _ in range(4):
            lo = gen.integers(-4, 4, size=dim).astype(np.float64)
            hi = lo + width
            chunks = list(flat.window_query_iter(lo, hi, first_chunk=first_chunk))
            got = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            assert all(0 < len(c) <= flat.chunk_points for c in chunks)
            assert np.array_equal(np.sort(got), _brute_force(points, lo, hi))
            # Same candidate order as the pointer traversal, not just the set.
            assert np.array_equal(got, _legacy_stream(reference, lo, hi))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["low", "high"])
    def test_non_finite_bounds_raise(self, rng, bad, side):
        flat = build_flat_str(rng.standard_normal((200, 3)), max_entries=8)
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        (lo if side == "low" else hi)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            list(flat.window_query_iter(lo, hi))
        with pytest.raises(ValueError, match="finite"):
            flat.window_query(lo, hi)

    def test_walk_counts_match_tree_stats(self, rng):
        points = rng.standard_normal((3000, 4))
        flat = build_flat_str(points, max_entries=16)
        lo, hi = np.full(4, -0.5), np.full(4, 0.5)
        walk = RTreeStats()
        ids = np.concatenate(list(flat.window_query_iter(lo, hi, counts=walk)))
        assert walk == flat.stats
        assert walk.node_visits > 0 and walk.leaf_visits > 0
        assert walk.points_scanned >= ids.shape[0] > 0

    def test_first_chunk_counts_hit_leaf_points(self, rng):
        # Chunks are sized in points of leaves whose MBR meets the window:
        # a first chunk of one point scans exactly one point.
        points = rng.standard_normal((2000, 4))
        flat = build_flat_str(points, max_entries=16)
        lo, hi = points.min(axis=0), points.max(axis=0)
        walk = RTreeStats()
        first = next(flat.window_query_iter(lo, hi, first_chunk=1, counts=walk))
        assert first.shape[0] == 1
        assert walk.points_scanned == 1
