"""Adaptive octree over 3-D points.

The FMM arranges points in a spatial tree whose leaves hold at most
``q`` points (the user-selected leaf capacity of §V-C).  This is a
pointer-free octree: a box splits into its non-empty octants until it
fits the capacity or reaches a depth limit (which handles duplicate
points gracefully), and only leaves retain point indices.

The build is a handful of array passes, not a recursion.  Boxes are
exact dyadic cells, so a point's octant at every level is a bit of its
integer cell coordinates ``floor(pos * 2**max_depth)``.  One Morton sort
of those coordinates puts every box's points in one contiguous run,
children in octant order; the tree is then split one level at a time by
counting each splitting box's points per octant.  Nodes come out in the
preorder of the recursive definition, leaves in its depth-first order.

The tree is a leaf table (CSR point storage plus each leaf's box) and a
node table, which validation, the U-list join, pair counting and the
cache traces read as arrays; :class:`Leaf`/:class:`Node` objects are
made from them on first access, for the traversals only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.exceptions import TreeError

__all__ = ["Leaf", "Node", "Octree"]

#: Default subdivision depth limit; 2^-20 boxes are far below any
#: physically meaningful separation in the unit cube.
MAX_DEPTH = 20

#: Levels per int64 Morton key: three bits a level, 21 levels in 63
#: bits.  A deeper tree sorts on one key per block of 21 levels.
_KEY_LEVELS = 21

#: The sign of each octant's centre offset along x, y, z: bit ``d`` of
#: the octant is set iff the child lies on the high side of axis ``d``.
_OCTANT_SIGNS = np.array(
    [[1.0 if octant & (1 << d) else -1.0 for d in range(3)] for octant in range(8)]
)


@dataclass(frozen=True, slots=True)
class Leaf:
    """One leaf box of the octree, a row of its leaf table.

    ``index`` is the leaf's position in leaf order, its identity for
    U-lists and traffic counters; ``points`` indexes the tree's points;
    ``depth`` is the subdivision level (root children are depth 1).
    """

    index: int
    center: np.ndarray
    half_width: float
    points: np.ndarray
    depth: int

    @property
    def size(self) -> int:
        """Number of points in this leaf."""
        return int(self.points.size)


@dataclass(frozen=True, slots=True)
class Node:
    """One internal (or leaf-wrapping) box, a row of the node table.

    ``children`` are indices into :attr:`Octree.nodes`; a node wrapping a
    leaf has no children and carries that leaf's index in ``leaf_index``.
    """

    index: int
    center: np.ndarray
    half_width: float
    depth: int
    children: tuple[int, ...]
    leaf_index: int | None


@dataclass(eq=False)
class Octree:
    """An adaptive octree with capacity-``q`` leaves.

    Build with :meth:`build`; the constructor is the raw container of
    the two tables.  Leaf ``i`` (depth-first order) holds the points
    ``leaf_points[leaf_offsets[i]:leaf_offsets[i + 1]]``, ascending; the
    node table lists every box in preorder, root first, with its parent
    (the root's entry is 0) and leaf index (-1 for a box that splits).
    ``max_depth`` is the subdivision cut-off the tree was built with:
    only leaves at it may exceed the capacity.
    """

    positions: np.ndarray
    densities: np.ndarray
    leaf_capacity: int
    leaf_offsets: np.ndarray
    leaf_points: np.ndarray
    leaf_centers: np.ndarray
    leaf_halves: np.ndarray
    leaf_depths: np.ndarray
    node_centers: np.ndarray
    node_halves: np.ndarray
    node_depths: np.ndarray
    node_parents: np.ndarray
    node_leaves: np.ndarray
    max_depth: int = MAX_DEPTH

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        densities: np.ndarray,
        *,
        leaf_capacity: int,
        max_depth: int = MAX_DEPTH,
    ) -> "Octree":
        """Construct the tree over points in the unit cube.

        Parameters
        ----------
        positions:
            ``(n, 3)`` coordinates, each in ``[0, 1)``.
        densities:
            Length-``n`` source densities (``d_s`` in Algorithm 1).
        leaf_capacity:
            Maximum points per leaf (``q``).
        max_depth:
            Subdivision cut-off; an over-full box at this depth becomes a
            leaf anyway (duplicate-point safety valve).
        """
        pos = np.asarray(positions, dtype=float)
        den = np.asarray(densities, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise TreeError(f"positions must be (n, 3), got {pos.shape}")
        if den.shape != (pos.shape[0],):
            raise TreeError("densities must have one entry per point")
        if pos.shape[0] == 0:
            raise TreeError("cannot build a tree over zero points")
        if leaf_capacity < 1:
            raise TreeError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if max_depth < 0:
            raise TreeError(f"max_depth must be >= 0, got {max_depth}")
        if np.any(pos < 0.0) or np.any(pos >= 1.0):
            raise TreeError("positions must lie in [0, 1)^3")

        tables = cls._build(pos, leaf_capacity, max_depth)
        return cls(pos, den, leaf_capacity, max_depth=max_depth, **tables)

    @staticmethod
    def _build(positions: np.ndarray, leaf_capacity: int, max_depth: int) -> dict:
        """The leaf and node tables, read-only (see the module notes)."""
        n = positions.shape[0]
        keys = _morton_keys(positions, max_depth)
        # Points sharing a finest cell may tie in any order: each leaf's
        # points are sorted by index at the end.
        order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
        keys = [key[order] for key in keys]

        # One level at a time: the boxes of that level as point ranges
        # [start, end) of ``order``, with their centres and parent boxes
        # (numbered level by level; the root's parent entry is unused).
        start, end = np.array([0]), np.array([n])
        center = np.full((1, 3), 0.5)
        parent = np.array([0])
        half = 0.5
        levels = []
        first_box = 0
        for depth in range(max_depth + 1):
            split = (end - start > leaf_capacity) & (depth < max_depth)
            levels.append((start, center, parent, depth, half, split))
            boxes = first_box + np.arange(start.size)
            first_box += start.size
            if not split.any():
                break
            start, end, center = start[split], end[split], center[split]
            # The child octant of every point in a splitting box: its
            # Morton digit at level ``depth + 1``.
            block, level = divmod(depth, _KEY_LEVELS)
            block_levels = min(_KEY_LEVELS, max_depth - block * _KEY_LEVELS)
            sizes = end - start
            box = np.repeat(np.arange(start.size), sizes)
            point = np.arange(box.size) + np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
            digit = (keys[block][point] >> (3 * (block_levels - level - 1))) & 7
            per_octant = np.bincount(box * 8 + digit, minlength=8 * start.size)
            per_octant = per_octant.reshape(-1, 8)
            child_end = start[:, None] + np.cumsum(per_octant, axis=1)
            child_start = child_end - per_octant
            occupied = per_octant > 0
            half /= 2.0
            parent = np.repeat(boxes[split], occupied.sum(axis=1))
            center = (center[:, None, :] + _OCTANT_SIGNS * half)[occupied]
            start, end = child_start[occupied], child_end[occupied]

        # Preorder: by first point, ancestors before descendants.
        starts, centers, parents, depths, halves, splits = zip(*levels)
        counts = [s.size for s in starts]
        start = np.concatenate(starts)
        depth = np.repeat(depths, counts)
        preorder = np.lexsort((depth, start))
        rank = np.empty_like(preorder)
        rank[preorder] = np.arange(preorder.size)
        start, depth = start[preorder], depth[preorder]
        center = np.concatenate(centers)[preorder]
        half = np.repeat(halves, counts)[preorder]
        is_leaf = ~np.concatenate(splits)[preorder]
        # Leaves tile ``order`` in preorder: their first points are offsets.
        offsets = np.append(start[is_leaf], n)

        # Each leaf's points as ascending indices: sort (leaf, index) keys.
        leaf_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets)) * n
        tables = {
            "leaf_offsets": offsets,
            "leaf_points": np.sort(leaf_of + order) - leaf_of,
            "leaf_centers": center[is_leaf],
            "leaf_halves": half[is_leaf],
            "leaf_depths": depth[is_leaf],
            "node_centers": center,
            "node_halves": half,
            "node_depths": depth,
            "node_parents": rank[np.concatenate(parents)[preorder]],
            "node_leaves": np.where(is_leaf, np.cumsum(is_leaf) - 1, -1),
        }
        for table in tables.values():
            table.setflags(write=False)
        return tables

    @cached_property
    def leaves(self) -> tuple[Leaf, ...]:
        """The leaf table as :class:`Leaf` objects, made on first access."""
        bounds = self.leaf_offsets.tolist()
        rows = zip(bounds, bounds[1:], self.leaf_halves.tolist(), self.leaf_depths.tolist())
        return tuple(
            Leaf(i, self.leaf_centers[i], h, self.leaf_points[lo:hi], d)
            for i, (lo, hi, h, d) in enumerate(rows)
        )

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The node table as :class:`Node` objects, made on first access."""
        children: list[list[int]] = [[] for _ in range(self.node_parents.size)]
        for child, up in enumerate(self.node_parents[1:].tolist(), start=1):
            children[up].append(child)
        rows = zip(self.node_halves.tolist(), self.node_depths.tolist(), self.node_leaves.tolist())
        return tuple(
            Node(i, self.node_centers[i], h, d, tuple(children[i]), None if li < 0 else li)
            for i, (h, d, li) in enumerate(rows)
        )

    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Total points in the tree."""
        return int(self.positions.shape[0])

    @property
    def n_leaves(self) -> int:
        """Number of (non-empty) leaves."""
        return self.leaf_offsets.size - 1

    def leaf_sizes(self) -> np.ndarray:
        """Points per leaf, in leaf order."""
        return np.diff(self.leaf_offsets)

    def validate(self) -> None:
        """Structural invariants; raises :class:`TreeError` on violation.

        * every point is in exactly one leaf;
        * every leaf respects capacity (unless at the depth limit);
        * every leaf's points lie inside its box.

        Vectorised over all points: each is compared with its own
        leaf's box, one axis at a time.  A violation names the first
        offending leaf, and within a leaf an overflow is reported before
        an out-of-box point.
        """
        n = self.n_points
        sizes = self.leaf_sizes()
        seen = self.leaf_points
        covered = np.count_nonzero(
            np.bincount(seen[(seen >= 0) & (seen < n)], minlength=n)
        )
        if seen.size != n or covered != n:
            raise TreeError(f"leaves cover {covered} of {n} points")
        over = (sizes > self.leaf_capacity) & (self.leaf_depths < self.max_depth)
        # Half-open boxes: [c-h, c+h); points sit strictly inside up to fp
        # slack.  Each point meets its own leaf's box, one axis at a time.
        halves = np.repeat(self.leaf_halves, sizes)
        outside = np.zeros(n, dtype=bool)
        for axis in range(3):
            pts = self.positions[seen, axis]
            mid = np.repeat(self.leaf_centers[:, axis], sizes)
            outside |= (pts < mid - halves - 1e-12) | (pts >= mid + halves + 1e-12)
        bad = over.copy()
        bad[np.searchsorted(self.leaf_offsets, np.flatnonzero(outside), side="right") - 1] = True
        if bad.any():
            first = int(np.argmax(bad))
            if over[first]:
                raise TreeError(
                    f"leaf {first} overflows capacity "
                    f"({sizes[first]} > {self.leaf_capacity}) above the depth limit"
                )
            raise TreeError(f"leaf {first} contains out-of-box points")


def _morton_keys(positions: np.ndarray, max_depth: int) -> list[np.ndarray]:
    """Morton keys of every point's depth-``max_depth`` cell.

    One int64 key per block of :data:`_KEY_LEVELS` levels, coarsest
    block first (a depth-0 tree gets one all-zero key); within a key, a
    level is three bits ``x | y << 1 | z << 2``, coarsest level highest.
    Cell coordinates are exact at any depth: each block scales what is
    left of the coordinates by a power of two and takes the integer
    part, and neither step rounds.
    """
    keys = []
    frac = positions
    for top in range(0, max(max_depth, 1), _KEY_LEVELS):
        levels = min(_KEY_LEVELS, max_depth - top)
        scaled = np.ldexp(frac, levels)
        cells = scaled.astype(np.int64)  # truncation is floor: scaled >= 0
        frac = scaled - cells
        keys.append(
            _spread_bits(cells[:, 0])
            | (_spread_bits(cells[:, 1]) << 1)
            | (_spread_bits(cells[:, 2]) << 2)
        )
    return keys


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Move bit ``i`` of each (< 2**21) value to bit ``3 i``."""
    v = (v | (v << 32)) & 0x1F00000000FFFF
    v = (v | (v << 16)) & 0x1F0000FF0000FF
    v = (v | (v << 8)) & 0x100F00F00F00F00F
    v = (v | (v << 4)) & 0x10C30C30C30C30C3
    return (v | (v << 2)) & 0x1249249249249249
