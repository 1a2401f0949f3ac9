"""Unit tests for the binary BVH builders (SAH and median)."""

import pytest

from repro.bvh import BuildConfig, build_binary_bvh
from repro.geometry import Triangle

from conftest import make_triangles


def leaf_primitive_ids(root):
    """All primitive ids stored in leaves, via explicit stack."""
    ids = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            ids.extend(node.primitive_ids)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return ids


class TestBuildConfig:
    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            BuildConfig(max_leaf_size=0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            BuildConfig(strategy="zorder")

    def test_rejects_tiny_bin_count(self):
        with pytest.raises(ValueError):
            BuildConfig(bin_count=1)


class TestBuildBasics:
    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_every_triangle_in_exactly_one_leaf(self, strategy):
        tris = make_triangles(50)
        root = build_binary_bvh(tris, BuildConfig(strategy=strategy))
        ids = leaf_primitive_ids(root)
        assert sorted(ids) == sorted(t.primitive_id for t in tris)

    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_leaf_size_respected(self, strategy):
        tris = make_triangles(80)
        config = BuildConfig(max_leaf_size=3, strategy=strategy)
        root = build_binary_bvh(tris, config)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert len(node.primitive_ids) <= 3
            else:
                stack.extend([node.left, node.right])

    def test_bounds_contain_children(self):
        tris = make_triangles(60)
        root = build_binary_bvh(tris)
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                assert node.bounds.expanded(1e-9).contains_box(
                    node.left.bounds
                )
                assert node.bounds.expanded(1e-9).contains_box(
                    node.right.bounds
                )
                stack.extend([node.left, node.right])

    def test_empty_input_gives_empty_leaf(self):
        root = build_binary_bvh([])
        assert root.is_leaf and root.primitive_ids == ()
        assert root.bounds.is_empty()

    def test_single_triangle(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 42)
        root = build_binary_bvh([tri])
        assert root.is_leaf and root.primitive_ids == (42,)

    def test_duplicate_primitive_ids_rejected(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1)
        with pytest.raises(ValueError):
            build_binary_bvh([tri, tri])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_vertex_rejected(self, bad):
        tris = make_triangles(12)
        t = tris[7]
        tris[7] = Triangle(t.v0, (t.v1[0], bad, t.v1[2]), t.v2,
                           t.primitive_id)
        with pytest.raises(ValueError, match=f"primitive_id {t.primitive_id} "
                                             "has a non-finite"):
            build_binary_bvh(tris)


class TestDegenerateInputs:
    def test_all_coincident_centroids_terminates(self):
        # 10 identical triangles: no spatial split exists.
        tris = [
            Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), i)
            for i in range(10)
        ]
        root = build_binary_bvh(tris, BuildConfig(max_leaf_size=2))
        assert sorted(leaf_primitive_ids(root)) == list(range(10))

    def test_collinear_centroids(self):
        tris = [
            Triangle(
                (float(i), 0.0, 0.0),
                (float(i) + 0.5, 0.0, 0.0),
                (float(i), 0.5, 0.0),
                i,
            )
            for i in range(16)
        ]
        root = build_binary_bvh(tris, BuildConfig(max_leaf_size=2))
        assert sorted(leaf_primitive_ids(root)) == list(range(16))


class TestSahQuality:
    def test_sah_no_worse_than_median_on_clusters(self):
        """SAH should produce a tree with smaller (or equal) total area."""
        tris = make_triangles(200, seed=3)

        def total_area(node):
            stack, acc = [node], 0.0
            while stack:
                n = stack.pop()
                acc += n.bounds.surface_area()
                if not n.is_leaf:
                    stack.extend([n.left, n.right])
            return acc

        sah = build_binary_bvh(tris, BuildConfig(strategy="sah"))
        median = build_binary_bvh(tris, BuildConfig(strategy="median"))
        assert total_area(sah) <= total_area(median) * 1.10

    def test_node_count_bounds(self):
        tris = make_triangles(100)
        root = build_binary_bvh(tris, BuildConfig(max_leaf_size=1))
        count = root.count_nodes()
        # A binary tree over n leaves has between n and 2n-1 nodes.
        assert 100 <= count <= 2 * 100 - 1 + 100  # allow degenerate splits

    def test_max_depth_reasonable(self):
        tris = make_triangles(128)
        root = build_binary_bvh(tris)
        assert root.max_depth() <= 64
