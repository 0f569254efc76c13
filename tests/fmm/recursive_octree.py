"""The recursive octree build, kept as the oracle for ``Octree.build``.

A box at ``depth`` becomes a leaf when it holds at most ``leaf_capacity``
points or sits at ``max_depth``; otherwise its points are split by the
3-bit octant code ``(x >= cx) | (y >= cy) << 1 | (z >= cz) << 2``
against its centre and each non-empty octant recurses, in octant order.
Nodes are numbered in that recursion's preorder, leaves in its
depth-first order, and a leaf's points are its sorted indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fmm.tree import MAX_DEPTH, Leaf, Node


@dataclass
class RecursiveTree:
    """The recursion's boxes as :class:`Leaf` and :class:`Node` objects."""

    positions: np.ndarray
    leaf_capacity: int
    max_depth: int
    leaves: list[Leaf] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)


def recursive_octree(
    positions: np.ndarray,
    *,
    leaf_capacity: int,
    max_depth: int = MAX_DEPTH,
) -> RecursiveTree:
    """The tree ``Octree.build`` must produce, built by recursion."""
    tree = RecursiveTree(
        positions=np.asarray(positions, dtype=float),
        leaf_capacity=leaf_capacity,
        max_depth=max_depth,
    )
    _subdivide(
        tree, np.arange(len(tree.positions)), np.full(3, 0.5), 0.5, depth=0
    )
    return tree


def _subdivide(
    tree: RecursiveTree,
    indices: np.ndarray,
    center: np.ndarray,
    half_width: float,
    *,
    depth: int,
) -> int:
    """Split one non-empty box; record its leaves and nodes.

    Returns the box's index in ``tree.nodes``.
    """
    node_index = len(tree.nodes)
    if indices.size <= tree.leaf_capacity or depth >= tree.max_depth:
        leaf = Leaf(
            index=len(tree.leaves),
            center=center.copy(),
            half_width=half_width,
            points=np.sort(indices),
            depth=depth,
        )
        tree.leaves.append(leaf)
        tree.nodes.append(
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
    tree.nodes.append(None)
    pts = tree.positions[indices]
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
        children.append(
            _subdivide(
                tree, child_indices, center + offset, quarter, depth=depth + 1
            )
        )
    tree.nodes[node_index] = Node(
        index=node_index,
        center=center.copy(),
        half_width=half_width,
        depth=depth,
        children=tuple(children),
        leaf_index=None,
    )
    return node_index
