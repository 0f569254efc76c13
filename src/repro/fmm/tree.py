"""Adaptive octree over 3-D points.

The FMM arranges points in a spatial tree whose leaves hold at most
``q`` points (the user-selected leaf capacity of §V-C).  This is a
straightforward pointer-free octree: nodes subdivide recursively until
they fit the capacity or reach a depth limit (which handles duplicate
points gracefully), and only leaves retain point indices.

The implementation is numpy-vectorised per node (octant assignment is a
3-bit code computed for all points at once), following the
"vectorise the inner loop" idiom rather than per-point recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import TreeError

__all__ = ["Leaf", "Node", "Octree"]

#: Default subdivision depth limit; 2^-20 boxes are far below any
#: physically meaningful separation in the unit cube.
MAX_DEPTH = 20


@dataclass(frozen=True, slots=True)
class Leaf:
    """One leaf box of the octree.

    Attributes
    ----------
    index:
        Position in :attr:`Octree.leaves` — the leaf's identity for
        U-lists and traffic counters.
    center:
        Box centre (3-vector).
    half_width:
        Half the box edge length (boxes are cubes).
    points:
        Indices into the tree's point array.
    depth:
        Subdivision level (root children are depth 1).
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
    """One internal (or leaf-wrapping) node of the full tree structure.

    ``children`` are indices into :attr:`Octree.nodes`; a node wrapping a
    leaf has no children and carries that leaf's index in ``leaf_index``.
    The node list enables hierarchical traversals (Barnes-Hut, future
    M2M/L2L pipelines) without touching the flat leaf API.
    """

    index: int
    center: np.ndarray
    half_width: float
    depth: int
    children: tuple[int, ...]
    leaf_index: int | None


@dataclass
class Octree:
    """An adaptive octree with capacity-``q`` leaves.

    Build with :meth:`build`; the constructor is the raw container.
    ``leaves`` is the flat leaf list most consumers use; ``nodes`` is the
    full hierarchical structure (root at index 0) for tree traversals.
    """

    positions: np.ndarray
    densities: np.ndarray
    leaf_capacity: int
    leaves: list[Leaf] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)

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

        tree = cls(positions=pos, densities=den, leaf_capacity=leaf_capacity)
        root_center = np.full(3, 0.5)
        tree._subdivide(
            np.arange(pos.shape[0]), root_center, 0.5, depth=0, max_depth=max_depth
        )
        return tree

    def _subdivide(
        self,
        indices: np.ndarray,
        center: np.ndarray,
        half_width: float,
        *,
        depth: int,
        max_depth: int,
    ) -> int:
        """Recursively split a box; record leaves and nodes.

        Returns the created node's index in :attr:`nodes` (-1 for empty
        boxes, which create nothing).
        """
        if indices.size == 0:
            return -1
        node_index = len(self.nodes)
        if indices.size <= self.leaf_capacity or depth >= max_depth:
            leaf = Leaf(
                index=len(self.leaves),
                center=center.copy(),
                half_width=half_width,
                points=np.sort(indices),
                depth=depth,
            )
            self.leaves.append(leaf)
            self.nodes.append(
                Node(
                    index=node_index,
                    center=center.copy(),
                    half_width=half_width,
                    depth=depth,
                    children=(),
                    leaf_index=leaf.index,
                )
            )
            return node_index
        # Reserve the slot so children index consistently after us.
        self.nodes.append(
            Node(
                index=node_index,
                center=center.copy(),
                half_width=half_width,
                depth=depth,
                children=(),
                leaf_index=None,
            )
        )
        pts = self.positions[indices]
        # 3-bit octant code per point: bit d set iff coordinate d >= centre.
        codes = (
            (pts[:, 0] >= center[0]).astype(np.int64)
            | ((pts[:, 1] >= center[1]).astype(np.int64) << 1)
            | ((pts[:, 2] >= center[2]).astype(np.int64) << 2)
        )
        quarter = half_width / 2.0
        children: list[int] = []
        for octant in range(8):
            child_indices = indices[codes == octant]
            if child_indices.size == 0:
                continue
            offset = np.array(
                [
                    quarter if octant & 1 else -quarter,
                    quarter if octant & 2 else -quarter,
                    quarter if octant & 4 else -quarter,
                ]
            )
            child = self._subdivide(
                child_indices,
                center + offset,
                quarter,
                depth=depth + 1,
                max_depth=max_depth,
            )
            if child >= 0:
                children.append(child)
        # Replace the reserved placeholder with the completed node.
        self.nodes[node_index] = Node(
            index=node_index,
            center=center.copy(),
            half_width=half_width,
            depth=depth,
            children=tuple(children),
            leaf_index=None,
        )
        return node_index

    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Total points in the tree."""
        return int(self.positions.shape[0])

    @property
    def n_leaves(self) -> int:
        """Number of (non-empty) leaves."""
        return len(self.leaves)

    def leaf_sizes(self) -> np.ndarray:
        """Points per leaf, in leaf order."""
        return np.array([leaf.size for leaf in self.leaves], dtype=np.int64)

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
        seen = (
            np.concatenate([leaf.points for leaf in self.leaves])
            if self.leaves
            else np.array([], dtype=np.int64)
        )
        covered = np.count_nonzero(
            np.bincount(seen[(seen >= 0) & (seen < n)], minlength=n)
        )
        if seen.size != n or covered != n:
            raise TreeError(f"leaves cover {covered} of {n} points")
        if not self.leaves:
            return
        depths = np.array([leaf.depth for leaf in self.leaves])
        over = (sizes > self.leaf_capacity) & (depths < MAX_DEPTH)
        # Half-open boxes: [c-h, c+h); points sit strictly inside up to fp
        # slack.  Each point meets its own leaf's box, one axis at a time.
        centers = np.array([leaf.center for leaf in self.leaves])
        halves = np.repeat([leaf.half_width for leaf in self.leaves], sizes)
        outside = np.zeros(n, dtype=bool)
        for axis in range(3):
            pts = self.positions[seen, axis]
            mid = np.repeat(centers[:, axis], sizes)
            outside |= (pts < mid - halves - 1e-12) | (pts >= mid + halves + 1e-12)
        leaf_of_point = np.repeat(np.arange(len(self.leaves)), sizes)
        first_over = int(np.argmax(over)) if over.any() else len(self.leaves)
        first_out = (
            int(leaf_of_point[np.argmax(outside)]) if outside.any() else len(self.leaves)
        )
        if first_over < len(self.leaves) and first_over <= first_out:
            leaf = self.leaves[first_over]
            raise TreeError(
                f"leaf {leaf.index} overflows capacity "
                f"({leaf.size} > {self.leaf_capacity}) above the depth limit"
            )
        if first_out < len(self.leaves):
            raise TreeError(
                f"leaf {self.leaves[first_out].index} contains out-of-box points"
            )
