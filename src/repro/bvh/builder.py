"""Binary BVH construction: binned SAH and median-split builders.

The paper's scenes use BVHs built by Intel Embree; Embree's default builder
is a binned surface-area-heuristic (SAH) top-down build.  We implement that
algorithm here, plus a cheaper median-split builder used by tests and by
very small scenes.  The binary tree produced here is then collapsed to a
6-wide BVH by :mod:`repro.bvh.wide`.

Scene construction is on the critical path of every cold run, so the SAH
build is level-synchronous: every node at one depth is binned, scanned,
and partitioned in a single set of numpy calls, the formulation GPU
builders use (Lauterbach et al., "Fast BVH Construction on GPUs", 2009).
The tree is the one a node-at-a-time recursion builds, bit for bit (with
-0.0 folded into +0.0): min and max are exact, the cost arithmetic is
elementwise in the same operation order, and ties break toward the
lowest axis and bin.  ``tests/reference_builder.py`` keeps that
recursion as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import AABB, Triangle

#: Number of bins per axis for the SAH sweep (Embree uses 16-32).
SAH_BIN_COUNT = 16

#: Segments binned per numpy pass.  Bounds the ``(bins, segments, 3, 3)``
#: scan temporaries (about 0.3 MB each at 16 bins) however wide a level
#: is; larger chunks measured no faster.
_SAH_CHUNK_SEGMENTS = 256

#: SAH cost constants: traversal vs intersection cost ratio.
TRAVERSAL_COST = 1.0
INTERSECTION_COST = 1.5


@dataclass
class BinaryNode:
    """Node of the intermediate binary BVH."""

    bounds: AABB
    left: Optional["BinaryNode"] = None
    right: Optional["BinaryNode"] = None
    primitive_ids: Tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def count_nodes(self) -> int:
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def max_depth(self) -> int:
        deepest = 0
        stack = [(self, 1)]
        while stack:
            node, depth = stack.pop()
            deepest = max(deepest, depth)
            if not node.is_leaf:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return deepest


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for the top-down build."""

    max_leaf_size: int = 4
    strategy: str = "sah"  # "sah" or "median"
    bin_count: int = SAH_BIN_COUNT

    def __post_init__(self) -> None:
        if self.max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        if self.strategy not in ("sah", "median"):
            raise ValueError(f"unknown build strategy {self.strategy!r}")
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")


@dataclass
class _BuildArrays:
    """Column-oriented primitive data shared by every split."""

    prim_ids: np.ndarray  # (N,) int64 primitive ids
    lo: np.ndarray  # (N, 3) AABB minima
    hi: np.ndarray  # (N, 3) AABB maxima
    centroid: np.ndarray  # (N, 3)


def build_binary_bvh(
    triangles: Sequence[Triangle], config: Optional[BuildConfig] = None
) -> BinaryNode:
    """Build a binary BVH over ``triangles``.

    Triangle ``primitive_id`` values must be unique and every vertex
    coordinate finite; leaves store the ids.  An empty triangle list
    yields a single empty leaf.
    """
    config = config or BuildConfig()
    n = len(triangles)
    if n == 0:
        return BinaryNode(bounds=AABB.empty(), primitive_ids=())
    verts = np.array(
        [[tri.v0, tri.v1, tri.v2] for tri in triangles], dtype=np.float64
    )  # (N, 3, 3)
    prim_ids = np.array([tri.primitive_id for tri in triangles])
    if len(np.unique(prim_ids)) != n:
        raise ValueError("triangle primitive_ids must be unique")
    finite = np.isfinite(verts).all(axis=(1, 2))
    if not finite.all():
        bad = int(prim_ids[np.argmin(finite)])
        raise ValueError(
            f"triangle primitive_id {bad} has a non-finite vertex coordinate"
        )
    # ``+ 0.0`` folds -0.0 into +0.0.  numpy leaves the sign of a min/max
    # tie between the two zeros to how its loops are vectorized, so
    # without the fold the sign bit of a bound could differ between
    # equivalent reductions (and between numpy builds).
    arrays = _BuildArrays(
        prim_ids=prim_ids,
        lo=verts.min(axis=1) + 0.0,
        hi=verts.max(axis=1) + 0.0,
        centroid=verts.mean(axis=1),
    )
    return _build_levels(arrays, config)


def _build_levels(arrays: _BuildArrays, config: BuildConfig) -> BinaryNode:
    """Top-down build, one tree depth per iteration.

    ``order`` holds primitive indices; each live node at the current depth
    owns the contiguous segment ``order[start:start + count]``, in the
    order a node-at-a-time recursion would hold them.  Segments are never
    empty (``reduceat`` misreads empty ones), because every split leaves
    at least one primitive on each side.  Children come in (left, right)
    pairs, one pair per entry of ``parents``.
    """
    order = np.arange(len(arrays.prim_ids))
    counts = np.array([len(order)])
    parents: List[BinaryNode] = []
    root: Optional[BinaryNode] = None
    while len(counts):
        assert counts.min() > 0, "every segment must be non-empty"
        starts = np.cumsum(counts) - counts
        nodes = _nodes_with_bounds(
            np.minimum.reduceat(arrays.lo[order], starts, axis=0),
            np.maximum.reduceat(arrays.hi[order], starts, axis=0),
        )
        if root is None:
            root = nodes[0]
        for parent, left, right in zip(parents, nodes[0::2], nodes[1::2]):
            parent.left = left
            parent.right = right
        inner = counts > config.max_leaf_size
        in_inner = np.repeat(inner, counts)
        leaf_ids = arrays.prim_ids[order[~in_inner]].tolist()
        offset = 0
        for index in np.flatnonzero(~inner).tolist():
            end = offset + int(counts[index])
            nodes[index].primitive_ids = tuple(leaf_ids[offset:end])
            offset = end
        parents = [nodes[index] for index in np.flatnonzero(inner).tolist()]
        order = order[in_inner]
        counts = counts[inner]
        if len(counts):
            order, left_counts = _split_level(arrays, order, counts, config)
            counts = np.stack([left_counts, counts - left_counts], axis=1)
            counts = counts.ravel()
    assert root is not None
    return root


def _nodes_with_bounds(lo: np.ndarray, hi: np.ndarray) -> List[BinaryNode]:
    """One node per row of ``(S, 3)`` bounds; corners stay numpy scalars."""
    lo_flat = list(lo.ravel())
    hi_flat = list(hi.ravel())
    return [
        BinaryNode(bounds=AABB(box_lo, box_hi))
        for box_lo, box_hi in zip(
            zip(lo_flat[0::3], lo_flat[1::3], lo_flat[2::3]),
            zip(hi_flat[0::3], hi_flat[1::3], hi_flat[2::3]),
        )
    ]


def _split_level(
    arrays: _BuildArrays, order: np.ndarray, counts: np.ndarray,
    config: BuildConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split every segment of ``order`` in two.

    Returns the reordered ``order``, in which each segment holds its left
    child's primitives and then its right child's, and the left counts.
    Segments the binned SAH cannot split take the median split, and the
    halving fallback after it, one node at a time.
    """
    starts = np.cumsum(counts) - counts
    segment = np.repeat(np.arange(len(counts)), counts)
    if config.strategy == "sah":
        found, right = _sah_sides(arrays, order, counts, config.bin_count)
        right_counts = np.add.reduceat(right.astype(np.int64), starts)
        found &= (right_counts > 0) & (right_counts < counts)
        right &= found[segment]
        # A stable sort on (segment, side) partitions every segment at
        # once and keeps each child's primitives in their current order.
        order = order[np.argsort(segment * 2 + right, kind="stable")]
        left_counts = counts - np.where(found, right_counts, 0)
    else:
        found = np.zeros(len(counts), dtype=bool)
        left_counts = counts.copy()
    for index in np.flatnonzero(~found).tolist():
        start = int(starts[index])
        end = start + int(counts[index])
        indices = order[start:end]
        split = _median_split(arrays, indices)
        if split is None:
            # Degenerate spatial distribution: halve arbitrarily so the
            # build always terminates.
            mid = len(indices) // 2
            split = (indices[:mid], indices[mid:])
        left_part, right_part = split
        order[start:end] = np.concatenate([left_part, right_part])
        left_counts[index] = len(left_part)
    return order, left_counts


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


def _sah_sides(
    arrays: _BuildArrays, order: np.ndarray, counts: np.ndarray, n_bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_binned_sah` over every segment, ``_SAH_CHUNK_SEGMENTS`` at a
    time."""
    ends = np.cumsum(counts)
    found, right = [], []
    for first in range(0, len(counts), _SAH_CHUNK_SEGMENTS):
        chunk = counts[first:first + _SAH_CHUNK_SEGMENTS]
        begin = int(ends[first] - counts[first])
        end = int(ends[first + len(chunk) - 1])
        chunk_found, chunk_right = _binned_sah(
            arrays, order[begin:end], chunk, n_bins
        )
        found.append(chunk_found)
        right.append(chunk_right)
    return np.concatenate(found), np.concatenate(right)


def _binned_sah(
    arrays: _BuildArrays, order: np.ndarray, counts: np.ndarray, n_bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Binned SAH for every segment of ``order`` at once.

    Per segment and axis, centroids fall into ``n_bins`` equal bins over
    the centroid extent; the split minimizes ``A_L*N_L + A_R*N_R`` over
    the ``n_bins - 1`` bin planes.  Returns ``found`` per segment (some
    axis has a finite cost) and ``right`` per element (it lies beyond its
    segment's best plane).  Ties go to the lowest axis, then the lowest
    bin, and axes with zero centroid extent are never chosen.
    """
    n_segments = len(counts)
    starts = np.cumsum(counts) - counts
    segment = np.repeat(np.arange(n_segments), counts)
    centroids = arrays.centroid[order]  # (M, 3)
    lo_bound = np.minimum.reduceat(centroids, starts, axis=0)  # (S, 3)
    extent = np.maximum.reduceat(centroids, starts, axis=0) - lo_bound
    splittable = extent > 0.0
    scale = np.zeros_like(extent)
    np.divide(n_bins, extent, out=scale, where=splittable)
    bins = np.minimum(
        ((centroids - lo_bound[segment]) * scale[segment]).astype(np.int64),
        n_bins - 1,
    )  # (M, 3); zero-extent axes put everything in bin 0
    # Bins lead the layout, (n_bins, S, 3 axes[, 3 coords]), so the
    # prefix/suffix scans run along a contiguous leading axis.
    keys = ((bins * n_segments + segment[:, None]) * 3 + np.arange(3)).ravel()
    size = n_bins * n_segments * 3
    counts = np.bincount(keys, minlength=size).reshape(n_bins, n_segments, 3)
    # One scatter per side: each element's box once per axis, over
    # flattened (key, coordinate) slots.  1-D ``ufunc.at`` is several
    # times faster than the (size, 3) form.
    coord_keys = (keys[:, None] * 3 + np.arange(3)).ravel()
    box_lo = np.repeat(arrays.lo[order], 3, axis=0).ravel()
    box_hi = np.repeat(arrays.hi[order], 3, axis=0).ravel()
    bin_lo = np.full(size * 3, np.inf)
    bin_hi = np.full(size * 3, -np.inf)
    np.minimum.at(bin_lo, coord_keys, box_lo)
    np.maximum.at(bin_hi, coord_keys, box_hi)
    bin_lo = bin_lo.reshape(n_bins, n_segments, 3, 3)
    bin_hi = bin_hi.reshape(n_bins, n_segments, 3, 3)
    left_area = _half_areas(
        _scan(np.minimum, bin_lo), _scan(np.maximum, bin_hi)
    )
    right_area = _half_areas(
        _scan(np.minimum, bin_lo, reverse=True),
        _scan(np.maximum, bin_hi, reverse=True),
    )
    left_count = _scan(np.add, counts)
    right_count = _scan(np.add, counts, reverse=True)
    cost = (
        left_area[:-1] * left_count[:-1] + right_area[1:] * right_count[1:]
    )  # (n_bins - 1, S, 3)
    cost[(left_count[:-1] == 0) | (right_count[1:] == 0)] = np.inf
    cost[:, ~splittable] = np.inf
    split_bin = np.argmin(cost, axis=0)  # (S, 3)
    axis_cost = np.take_along_axis(cost, split_bin[None], axis=0)[0]
    axis = np.argmin(axis_cost, axis=1)  # (S,)
    rows = np.arange(n_segments)
    found = np.isfinite(axis_cost[rows, axis])
    plane = split_bin[rows, axis]
    right = bins[np.arange(len(order)), axis[segment]] > plane[segment]
    return found, right


def _scan(
    ufunc: np.ufunc, stack: np.ndarray, reverse: bool = False
) -> np.ndarray:
    """``ufunc.accumulate`` along axis 0 (from the last row if ``reverse``).

    Runs one whole-row ufunc call per bin with the same argument order as
    ``accumulate``; that is several times faster than ``accumulate`` along
    a leading axis, which does not vectorize across the trailing ones.
    """
    out = stack.copy()
    if reverse:
        for row in range(len(out) - 2, -1, -1):
            ufunc(out[row + 1], out[row], out=out[row])
    else:
        for row in range(1, len(out)):
            ufunc(out[row - 1], out[row], out=out[row])
    return out


def _half_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Half surface areas over the last axis of stacked boxes; empty -> 0."""
    ext = hi - lo
    # Empty running boxes have -inf extents; clamp them to zero area.
    ext = np.where(np.isfinite(ext) & (ext > 0.0), ext, 0.0)
    return (
        ext[..., 0] * ext[..., 1]
        + ext[..., 1] * ext[..., 2]
        + ext[..., 2] * ext[..., 0]
    )
