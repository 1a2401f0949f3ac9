"""Per-node binned SAH builder: the oracle for :mod:`repro.bvh.builder`.

This is the top-down build the library used before it switched to the
level-synchronous form: one node popped per step, and one small binned
SAH sweep (three axes, ``ufunc.at`` scatters, prefix/suffix scans) per
node.  It is kept verbatim so tests can compare whole trees built by
both: bounds, primitive-id order inside each leaf, and shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bvh import BinaryNode, BuildConfig
from repro.geometry import AABB, Triangle


@dataclass
class _BuildArrays:
    """Column-oriented primitive data shared by every split."""

    prim_ids: np.ndarray  # (N,) int64 primitive ids
    lo: np.ndarray  # (N, 3) AABB minima
    hi: np.ndarray  # (N, 3) AABB maxima
    centroid: np.ndarray  # (N, 3)


def reference_build_binary_bvh(
    triangles: Sequence[Triangle], config: Optional[BuildConfig] = None
) -> BinaryNode:
    """Build a binary BVH over ``triangles``.

    Triangle ``primitive_id`` values must be unique; leaves store them.
    An empty triangle list yields a single empty leaf.
    """
    config = config or BuildConfig()
    n = len(triangles)
    if n == 0:
        return BinaryNode(bounds=AABB.empty(), primitive_ids=())
    verts = np.array(
        [[tri.v0, tri.v1, tri.v2] for tri in triangles], dtype=np.float64
    )  # (N, 3, 3)
    arrays = _BuildArrays(
        prim_ids=np.array([tri.primitive_id for tri in triangles]),
        lo=verts.min(axis=1),
        hi=verts.max(axis=1),
        centroid=verts.mean(axis=1),
    )
    if len(np.unique(arrays.prim_ids)) != n:
        raise ValueError("triangle primitive_ids must be unique")
    return _build(arrays, np.arange(n), config)


def _build(
    arrays: _BuildArrays, all_indices: np.ndarray, config: BuildConfig
) -> BinaryNode:
    """Iterative top-down build (explicit stack; trees can be deep)."""
    root = BinaryNode(bounds=AABB.empty())
    stack: List[Tuple[BinaryNode, np.ndarray]] = [(root, all_indices)]
    while stack:
        node, indices = stack.pop()
        node.bounds = AABB(
            tuple(arrays.lo[indices].min(axis=0)),
            tuple(arrays.hi[indices].max(axis=0)),
        )
        if len(indices) <= config.max_leaf_size:
            node.primitive_ids = tuple(
                int(pid) for pid in arrays.prim_ids[indices]
            )
            continue
        split = _choose_split(arrays, indices, config)
        if split is None:
            # Degenerate spatial distribution: halve arbitrarily so the
            # build always terminates.
            mid = len(indices) // 2
            split = (indices[:mid], indices[mid:])
        left_indices, right_indices = split
        node.left = BinaryNode(bounds=AABB.empty())
        node.right = BinaryNode(bounds=AABB.empty())
        stack.append((node.left, left_indices))
        stack.append((node.right, right_indices))
    return root


def _choose_split(
    arrays: _BuildArrays, indices: np.ndarray, config: BuildConfig
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    if config.strategy == "median":
        return _median_split(arrays, indices)
    return _sah_split(arrays, indices, config)


def _median_split(
    arrays: _BuildArrays, indices: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Split at the median centroid along the longest centroid axis."""
    centroids = arrays.centroid[indices]
    extent = centroids.max(axis=0) - centroids.min(axis=0)
    axis = int(np.argmax(extent))
    if extent[axis] <= 0.0:
        return None
    order = np.argsort(centroids[:, axis], kind="stable")
    mid = len(indices) // 2
    return indices[order[:mid]], indices[order[mid:]]


def _sah_split(
    arrays: _BuildArrays, indices: np.ndarray, config: BuildConfig
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Binned SAH split: minimize ``A_L*N_L + A_R*N_R`` over bin planes.

    Falls back to a median split when all centroids coincide or binning
    produces an empty side.
    """
    n_bins = config.bin_count
    centroids = arrays.centroid[indices]
    lo_bound = centroids.min(axis=0)
    extent = centroids.max(axis=0) - lo_bound
    best: Optional[Tuple[float, int, int]] = None  # (cost, axis, bin)
    bin_cache = {}
    for axis in range(3):
        if extent[axis] <= 0.0:
            continue
        scale = n_bins / extent[axis]
        bin_idx = np.minimum(
            ((centroids[:, axis] - lo_bound[axis]) * scale).astype(np.int64),
            n_bins - 1,
        )
        bin_cache[axis] = bin_idx
        counts = np.bincount(bin_idx, minlength=n_bins)
        bin_lo = np.full((n_bins, 3), np.inf)
        bin_hi = np.full((n_bins, 3), -np.inf)
        np.minimum.at(bin_lo, bin_idx, arrays.lo[indices])
        np.maximum.at(bin_hi, bin_idx, arrays.hi[indices])
        # Prefix/suffix running bounds over the bins, fully vectorized.
        left_area = _half_areas(
            np.minimum.accumulate(bin_lo, axis=0),
            np.maximum.accumulate(bin_hi, axis=0),
        )
        right_area = _half_areas(
            np.minimum.accumulate(bin_lo[::-1], axis=0)[::-1],
            np.maximum.accumulate(bin_hi[::-1], axis=0)[::-1],
        )
        left_count = np.cumsum(counts)
        right_count = np.cumsum(counts[::-1])[::-1]
        cost = (
            left_area[:-1] * left_count[:-1]
            + right_area[1:] * right_count[1:]
        )
        cost[(left_count[:-1] == 0) | (right_count[1:] == 0)] = np.inf
        i = int(np.argmin(cost))
        if np.isfinite(cost[i]) and (best is None or cost[i] < best[0]):
            best = (float(cost[i]), axis, i)
    if best is None:
        return _median_split(arrays, indices)
    _, axis, split_bin = best
    mask = bin_cache[axis] <= split_bin
    left_indices = indices[mask]
    right_indices = indices[~mask]
    if not len(left_indices) or not len(right_indices):
        return _median_split(arrays, indices)
    return left_indices, right_indices


def _half_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Half surface areas for a (bins, 3) stack of boxes; empty boxes -> 0."""
    ext = hi - lo
    # Empty running boxes have -inf extents; clamp them to zero area.
    ext = np.where(np.isfinite(ext) & (ext > 0.0), ext, 0.0)
    return ext[:, 0] * ext[:, 1] + ext[:, 1] * ext[:, 2] + ext[:, 2] * ext[:, 0]
