"""The level-synchronous builder against the per-node reference.

``reference_builder.py`` keeps the node-at-a-time binned SAH build the
library used before.  Both must produce the same binary tree: the same
bounds bit for bit, the same primitive-id order in every leaf, and the
same shape.  The one exception is the sign of a zero bound: the builder
folds -0.0 into +0.0 (numpy leaves the sign of a tie between the two to
its loop implementation), so records fold it too.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.bvh.builder as builder
from repro.bvh import BuildConfig, build_binary_bvh
from repro.geometry import Triangle

from reference_builder import reference_build_binary_bvh


def tree_records(root):
    """Pre-order ``(lo bytes, hi bytes, primitive ids, is_leaf)`` rows,
    with -0.0 folded into +0.0."""
    rows = []
    stack = [root]
    while stack:
        node = stack.pop()
        rows.append((
            (np.array(node.bounds.lo, dtype=np.float64) + 0.0).tobytes(),
            (np.array(node.bounds.hi, dtype=np.float64) + 0.0).tobytes(),
            tuple(node.primitive_ids),
            node.is_leaf,
        ))
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return rows


def assert_same_tree(triangles, config):
    expected = tree_records(reference_build_binary_bvh(triangles, config))
    assert tree_records(build_binary_bvh(triangles, config)) == expected


def soup(rng, n, grid):
    """``n`` random triangles; ``grid`` snaps vertices to a coarse lattice
    so coincident centroids and exact cost ties are common."""
    centers = rng.uniform(-10.0, 10.0, size=(n, 1, 3))
    verts = centers + rng.uniform(-1.0, 1.0, size=(n, 3, 3))
    if grid:
        verts = np.round(verts * 2.0) / 2.0
    ids = rng.permutation(n) * 3 + 5  # unique, unordered, not 0..n-1
    return [Triangle(tuple(v[0]), tuple(v[1]), tuple(v[2]), int(pid))
            for v, pid in zip(verts.tolist(), ids.tolist())]


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
        max_leaf_size=st.integers(1, 4),
        bin_count=st.integers(2, 32),
        strategy=st.sampled_from(["sah", "median"]),
    )
    def test_random_soups(self, n, seed, grid, max_leaf_size, bin_count,
                          strategy):
        triangles = soup(np.random.default_rng(seed), n, grid)
        config = BuildConfig(max_leaf_size=max_leaf_size, strategy=strategy,
                             bin_count=bin_count)
        assert_same_tree(triangles, config)

    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_all_centroids_coincident(self, strategy):
        # Differently shaped triangles that share one centroid: no split
        # plane exists, so every node takes the halving fallback.
        triangles = [
            Triangle((-s, 0.0, 0.0), (s, 0.0, 0.0), (0.0, 0.0, 0.0), i)
            for i, s in enumerate([1.0, 2.0, 3.0, 0.5, 4.0, 1.5, 2.5, 6.0])
        ]
        assert_same_tree(triangles, BuildConfig(max_leaf_size=1,
                                                strategy=strategy))

    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_collinear_centroids(self, strategy):
        triangles = [
            Triangle((float(i % 7), 0.0, 0.0), (float(i % 7) + 0.5, 0.0, 0.0),
                     (float(i % 7), 0.5, 0.0), i)
            for i in range(40)
        ]
        assert_same_tree(triangles, BuildConfig(max_leaf_size=2,
                                                strategy=strategy))

    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_zero_extent_axis(self, strategy):
        # Every triangle lies in the plane z = 3: the z axis never splits.
        rng = np.random.default_rng(11)
        xy = rng.uniform(-5.0, 5.0, size=(60, 3, 2))
        triangles = [
            Triangle(*[(float(x), float(y), 3.0) for x, y in tri], i)
            for i, tri in enumerate(xy)
        ]
        assert_same_tree(triangles, BuildConfig(max_leaf_size=2,
                                                strategy=strategy))

    def test_negative_zero_bounds_fold_to_positive_zero(self):
        triangles = soup(np.random.default_rng(3), 80, grid=True)
        zero_signs = {
            np.signbit(value)
            for tri in triangles for v in (tri.v0, tri.v1, tri.v2)
            for value in v if value == 0.0
        }
        assert zero_signs == {False, True}  # the input mixes both zeros
        stack = [build_binary_bvh(triangles)]
        while stack:
            node = stack.pop()
            corners = np.array(node.bounds.lo + node.bounds.hi)
            assert not np.signbit(corners[corners == 0.0]).any()
            if not node.is_leaf:
                stack.extend([node.left, node.right])

    def test_median_fallback_when_sah_finds_no_split(self, monkeypatch):
        # A split with a finite cost always leaves primitives on both
        # sides, so the median fallback runs only when no plane has a
        # finite cost: here the box areas overflow to inf.
        calls = []
        median_split = builder._median_split

        def spy(arrays, indices):
            calls.append(len(indices))
            return median_split(arrays, indices)

        monkeypatch.setattr(builder, "_median_split", spy)
        rng = np.random.default_rng(5)
        verts = rng.uniform(-1e200, 1e200, size=(24, 3, 3))
        triangles = [Triangle(*map(tuple, tri), i)
                     for i, tri in enumerate(verts.tolist())]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert_same_tree(triangles, BuildConfig(max_leaf_size=2))
        assert calls and calls[0] == 24
