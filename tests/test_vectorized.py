"""Golden equality tests: vectorized packet traversal vs the scalar oracle.

The vectorized backend's contract is *bit identity*, not approximate
agreement — every trace, visit sequence, hit record, and mutated ray
interval must equal what the scalar reference produces.  These tests
pin that contract with randomized kernel inputs, the full 16-scene
library, multi-job packets, merged forests, and end-to-end SimStats.
"""

import random

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import (
    SMOKE,
    TREELET_PREFETCH,
    _run_experiment,
    clear_caches,
    get_bvh,
    get_decomposition,
    get_rays,
    prewarm_traces,
    set_trace_backend,
)
from repro.geometry import AABB, Ray, Triangle
from repro.scenes import ALL_SCENES
from repro.traversal import (
    traverse_dfs_batch,
    traverse_forest_jobs,
    traverse_two_stack_batch,
)
from repro.traversal.intersect import ray_aabb_test, ray_triangle_test
from repro.traversal.two_stack import DEFERRED_ORDERS
from repro.traversal.vectorized import (
    ray_aabb_test_batch,
    ray_triangle_test_batch,
    traverse_dfs_packet,
    traverse_packet_jobs,
    traverse_two_stack_packet,
)


def trace_signature(trace):
    hit = trace.hit
    return (
        trace.ray_id,
        tuple(
            (visit.node_id, visit.is_leaf, visit.primitive_count)
            for visit in trace.visits
        ),
        trace.box_tests,
        trace.primitive_tests,
        None
        if hit is None
        else (hit.t, hit.primitive_id, hit.point, hit.normal),
    )


def assert_traces_equal(vectorized, scalar):
    assert len(vectorized) == len(scalar)
    for got, want in zip(vectorized, scalar):
        assert trace_signature(got) == trace_signature(want)


def _random_rays(rng, count):
    rays = []
    for _ in range(count):
        direction = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        # Exercise the parallel-axis paths: zero out a component often.
        for axis in range(3):
            if rng.random() < 0.25:
                direction[axis] = 0.0
        if not any(direction):
            direction[2] = 1.0
        ray = Ray(
            origin=tuple(rng.uniform(-4.0, 4.0) for _ in range(3)),
            direction=tuple(direction),
        )
        if rng.random() < 0.3:
            ray.t_max = rng.uniform(0.5, 6.0)
        rays.append(ray)
    return rays


class TestKernelEquality:
    def test_aabb_batch_matches_scalar_randomized(self):
        rng = random.Random(0xA4BB)
        rays = _random_rays(rng, 400)
        boxes = []
        for ray in rays:
            if rng.random() < 0.2:
                # Box planes touching the ray origin exercise the
                # on-plane slab corner.
                base = list(ray.origin)
            else:
                base = [rng.uniform(-4.0, 4.0) for _ in range(3)]
            extent = [rng.uniform(0.0, 3.0) for _ in range(3)]
            boxes.append(
                AABB(tuple(base), tuple(b + e for b, e in zip(base, extent)))
            )
        origin = np.array([ray.origin for ray in rays])
        inv = np.array([ray.inv_direction for ray in rays])
        t_min = np.array([ray.t_min for ray in rays])
        t_max = np.array([ray.t_max for ray in rays])
        lo = np.array([box.lo for box in boxes])
        hi = np.array([box.hi for box in boxes])
        hit, t_near, t_far = ray_aabb_test_batch(
            origin, inv, t_min, t_max, lo, hi
        )
        for i, (ray, box) in enumerate(zip(rays, boxes)):
            want = ray_aabb_test(ray, box)
            if want is None:
                assert not hit[i]
            else:
                assert hit[i]
                assert (t_near[i], t_far[i]) == want

    def test_triangle_batch_matches_scalar_randomized(self):
        rng = random.Random(0x731A)
        rays = _random_rays(rng, 400)
        triangles = []
        for index in range(len(rays)):
            v0 = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
            triangles.append(
                Triangle(
                    v0=v0,
                    v1=tuple(c + rng.uniform(-2.0, 2.0) for c in v0),
                    v2=tuple(c + rng.uniform(-2.0, 2.0) for c in v0),
                    primitive_id=index,
                )
            )
        origin = np.array([ray.origin for ray in rays])
        direction = np.array([ray.direction for ray in rays])
        t_min = np.array([ray.t_min for ray in rays])
        t_max = np.array([ray.t_max for ray in rays])
        v0 = np.array([tri.v0 for tri in triangles])
        edge1 = np.array(
            [np.subtract(tri.v1, tri.v0) for tri in triangles]
        )
        edge2 = np.array(
            [np.subtract(tri.v2, tri.v0) for tri in triangles]
        )
        hit, t, _u, _v = ray_triangle_test_batch(
            origin, direction, t_min, t_max, v0, edge1, edge2
        )
        hits_seen = 0
        for i, (ray, tri) in enumerate(zip(rays, triangles)):
            want = ray_triangle_test(ray, tri)
            if want is None:
                assert not hit[i]
            else:
                hits_seen += 1
                assert hit[i]
                assert t[i] == want.t
        assert hits_seen > 0  # the workload must actually exercise hits

    def test_empty_box_never_hits(self):
        ray = Ray(origin=(0.0, 0.0, -2.0), direction=(0.0, 0.0, 1.0))
        assert ray_aabb_test(ray, AABB.empty()) is None
        empty = AABB.empty()
        hit, _, _ = ray_aabb_test_batch(
            np.array([ray.origin]),
            np.array([ray.inv_direction]),
            np.array([ray.t_min]),
            np.array([ray.t_max]),
            np.array([empty.lo]),
            np.array([empty.hi]),
        )
        assert not hit[0]


class TestSlabNanRegression:
    """0 * inf in the slab test: a ray parallel to an axis with its
    origin exactly on a slab plane must not silently pass (or fail) the
    axis through NaN comparisons."""

    @staticmethod
    def _on_plane_ray(x):
        # Parallel to the x slabs of the unit box, entering through z.
        ray = Ray(origin=(x, 0.5, -1.0), direction=(0.0, 0.0, 1.0))
        # Force the IEEE-divide convention (1/0 = inf) that produces
        # 0 * inf = NaN; safe_inverse's huge-finite clamp would mask it.
        ray.inv_direction = (float("inf"), ray.inv_direction[1],
                             ray.inv_direction[2])
        return ray

    def test_scalar_on_plane_parallel_ray_hits(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        for x in (0.0, 1.0):  # origin on the lo and the hi plane
            result = ray_aabb_test(self._on_plane_ray(x), box)
            assert result == (1.0, 2.0)

    def test_batch_matches_fixed_scalar_semantics(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        rays = [self._on_plane_ray(0.0), self._on_plane_ray(1.0)]
        hit, t_near, t_far = ray_aabb_test_batch(
            np.array([r.origin for r in rays]),
            np.array([r.inv_direction for r in rays]),
            np.array([r.t_min for r in rays]),
            np.array([r.t_max for r in rays]),
            np.array([box.lo, box.lo]),
            np.array([box.hi, box.hi]),
        )
        assert hit.all()
        assert list(t_near) == [1.0, 1.0]
        assert list(t_far) == [2.0, 2.0]


@pytest.mark.parametrize("scene", ALL_SCENES)
class TestSceneGoldenEquality:
    """Vectorized traces are bit-identical to scalar on every library
    scene (the tentpole acceptance criterion)."""

    def test_dfs_traces_identical(self, scene):
        bvh = get_bvh(scene, SMOKE)
        rays = get_rays(scene, SMOKE)
        scalar = traverse_dfs_batch([r.clone() for r in rays], bvh)
        vector = traverse_dfs_packet([r.clone() for r in rays], bvh)
        assert_traces_equal(vector, scalar)

    def test_two_stack_traces_identical(self, scene):
        bvh = get_bvh(scene, SMOKE)
        rays = get_rays(scene, SMOKE)
        decomposition = get_decomposition(scene, SMOKE, 512)
        scalar = traverse_two_stack_batch(
            [r.clone() for r in rays], bvh, decomposition, "nearest"
        )
        vector = traverse_two_stack_packet(
            [r.clone() for r in rays], bvh, decomposition, "nearest"
        )
        assert_traces_equal(vector, scalar)


class TestPacketShapes:
    """Equality must hold whatever the packet geometry: odd sizes,
    multi-config job batches, and cross-scene merged forests."""

    @pytest.mark.parametrize("order", DEFERRED_ORDERS)
    @pytest.mark.parametrize("packet_size", [7, 4096])
    def test_orders_and_packet_sizes(self, order, packet_size):
        bvh = get_bvh("WKND", SMOKE)
        rays = get_rays("WKND", SMOKE)
        decomposition = get_decomposition("WKND", SMOKE, 512)
        scalar = traverse_two_stack_batch(
            [r.clone() for r in rays], bvh, decomposition, order
        )
        vector = traverse_two_stack_packet(
            [r.clone() for r in rays], bvh, decomposition, order,
            packet_size=packet_size,
        )
        assert_traces_equal(vector, scalar)

    def test_multi_job_packets_match_standalone(self):
        bvh = get_bvh("BUNNY", SMOKE)
        rays = get_rays("BUNNY", SMOKE)
        decomposition = get_decomposition("BUNNY", SMOKE, 512)
        jobs = [([r.clone() for r in rays], None, "nearest")] + [
            ([r.clone() for r in rays], decomposition, order)
            for order in DEFERRED_ORDERS
        ]
        outputs = traverse_packet_jobs(bvh, jobs, packet_size=13)
        expected = [traverse_dfs_batch([r.clone() for r in rays], bvh)] + [
            traverse_two_stack_batch(
                [r.clone() for r in rays], bvh, decomposition, order
            )
            for order in DEFERRED_ORDERS
        ]
        for got, want in zip(outputs, expected):
            assert_traces_equal(got, want)

    def test_forest_merges_scenes_without_cross_talk(self):
        jobs = []
        expected = []
        for scene in ("WKND", "BUNNY", "SPNZA"):
            bvh = get_bvh(scene, SMOKE)
            rays = get_rays(scene, SMOKE)
            decomposition = get_decomposition(scene, SMOKE, 512)
            jobs.append((bvh, [r.clone() for r in rays], None, "nearest"))
            expected.append(
                traverse_dfs_batch([r.clone() for r in rays], bvh)
            )
            jobs.append(
                (bvh, [r.clone() for r in rays], decomposition, "lifo")
            )
            expected.append(
                traverse_two_stack_batch(
                    [r.clone() for r in rays], bvh, decomposition, "lifo"
                )
            )
        outputs = traverse_forest_jobs(jobs, packet_size=17)
        for got, want in zip(outputs, expected):
            assert_traces_equal(got, want)

    def test_ray_interval_mutations_match(self):
        bvh = get_bvh("WKND", SMOKE)
        rays = get_rays("WKND", SMOKE)
        scalar_rays = [r.clone() for r in rays]
        vector_rays = [r.clone() for r in rays]
        traverse_dfs_batch(scalar_rays, bvh)
        traverse_dfs_packet(vector_rays, bvh)
        assert [r.t_max for r in vector_rays] == [
            r.t_max for r in scalar_rays
        ]


class TestBackendEndToEnd:
    def test_simstats_identical_across_backends(self):
        from repro.obs import simstats_to_dict

        stats = {}
        for backend in ("scalar", "vectorized"):
            clear_caches()
            set_trace_backend(backend)
            try:
                result = _run_experiment("WKND", TREELET_PREFETCH, SMOKE)
            finally:
                set_trace_backend(None)
            stats[backend] = simstats_to_dict(result.stats)
        clear_caches()
        assert stats["scalar"] == stats["vectorized"]

    def test_prewarm_traces_matches_get_traces(self):
        from repro.core.pipeline import get_traces

        clear_caches()
        built = prewarm_traces([("WKND", TREELET_PREFETCH)], SMOKE)
        assert built == 1
        warm = get_traces(
            "WKND", SMOKE, TREELET_PREFETCH.traversal,
            TREELET_PREFETCH.treelet_bytes,
            TREELET_PREFETCH.deferred_order, TREELET_PREFETCH.formation,
        )
        # Drop only the memoized traces: the scene's ray list (and its
        # globally-counted ray ids) must stay identical for the rebuild.
        pipeline.STORE.clear("traces")
        cold = get_traces(
            "WKND", SMOKE, TREELET_PREFETCH.traversal,
            TREELET_PREFETCH.treelet_bytes,
            TREELET_PREFETCH.deferred_order, TREELET_PREFETCH.formation,
            backend="scalar",
        )
        assert_traces_equal(warm, cold)
        clear_caches()
