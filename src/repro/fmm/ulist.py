"""U-list construction: each leaf's geometrically adjacent source leaves.

In the FMM, a target leaf ``B`` interacts directly with its *U-list*
``U(B)`` — the leaves whose boxes touch ``B``'s box (including ``B``
itself); everything farther away is handled by multipole approximation.
For adaptive trees the neighbours may be larger or smaller boxes, so
adjacency is the box-overlap test

    ``|c_a[d] − c_b[d]| <= h_a + h_b + slack``  for every dimension d.

:func:`build_ulist` avoids the O(L²) all-pairs test with one sort-join
over exact octree cells; the naive quadratic reference is kept as the
test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TreeError
from repro.fmm.tree import Octree

__all__ = ["build_ulist", "build_ulist_naive", "boxes_adjacent"]

#: Relative slack for the touch test; boxes meeting exactly at a face,
#: edge, or corner count as adjacent.
_SLACK = 1e-9

#: The 27 integer offsets of a cell's neighbourhood (itself included).
_OFFSETS = np.array(
    [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)],
    dtype=np.int64,
)

#: Deepest level with int64 cell ids: the ids of a complete octree down
#: to level 20 number (8**21 - 1) / 7 < 2**63.  Equals the octree's
#: default depth limit, so it binds only on trees built deeper.
_ID_LEVELS = 20


def boxes_adjacent(
    center_a: np.ndarray,
    half_a: float,
    center_b: np.ndarray,
    half_b: float,
) -> bool:
    """Whether two axis-aligned cubes touch or overlap."""
    limit = half_a + half_b + _SLACK
    return bool(np.all(np.abs(center_a - center_b) <= limit))


def build_ulist_naive(tree: Octree) -> list[list[int]]:
    """O(L²) reference construction; exact, used as the test oracle."""
    leaves = tree.leaves
    ulist: list[list[int]] = [[] for _ in leaves]
    for a in leaves:
        for b in leaves:
            if boxes_adjacent(a.center, a.half_width, b.center, b.half_width):
                ulist[a.index].append(b.index)
    return ulist


def build_ulist(tree: Octree) -> list[list[int]]:
    """Sort-join U-list construction.

    Octree boxes are exact dyadic cells, so adjacency is decided on
    integer cell coordinates before any float is compared.  If leaves
    ``a`` and ``b`` touch and ``a`` is no deeper than ``b``, then ``b``
    lies in one of the 27 cells around ``a``'s own cell at ``a``'s
    level.  So every leaf *registers* under the cell that contains it
    at each leaf level down to its own, every leaf *probes* the 27
    cells around its own, and one ``searchsorted`` over the sorted
    registrations pairs probes with registrations.  A pair is kept if
    it passes the same float overlap test as :func:`boxes_adjacent`
    (same operand order: ``(h_a + h_b) + slack`` against
    ``|c_a − c_b|``), then mirrored and sorted by pair key.  The join finds
    every pair that test accepts as long as a cell edge exceeds the
    slack, i.e. for trees under 30 levels.

    Returns, for each leaf index, the sorted list of adjacent leaf
    indices (self included) — ``U(B)`` of Algorithm 1.
    """
    leaves = tree.leaves
    if not leaves:
        raise TreeError("tree has no leaves")
    n = len(leaves)
    centers = np.array([leaf.center for leaf in leaves], dtype=np.float64)
    halves = np.array([leaf.half_width for leaf in leaves], dtype=np.float64)
    # Leaves below _ID_LEVELS register and probe at that level: its cells
    # contain them, so the join stays complete, only coarser.
    levels = np.minimum([leaf.depth for leaf in leaves], _ID_LEVELS)

    pairs = _touching_pairs(centers, halves, levels)
    bounds = np.searchsorted(pairs, np.arange(n + 1) * n).tolist()
    pairs %= n  # key ``a * n + b`` -> neighbour ``b``
    neighbours = pairs.tolist()
    return [neighbours[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _touching_pairs(
    centers: np.ndarray, halves: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Sorted keys ``a * n + b`` of every adjacent ordered leaf pair."""
    n = len(levels)
    a, b = _join(*_registrations(centers, levels), *_probes(centers, levels))
    limits = (halves[a] + halves[b]) + _SLACK
    touching = np.ones(a.size, dtype=bool)
    for coord in centers.T:  # one axis at a time: fewer pair-sized temporaries
        touching &= np.abs(coord[a] - coord[b]) <= limits
    a, b = a[touching], b[touching]
    # Each pair so far has level(a) <= level(b) and occurs once; a pair
    # of one level was also found from its other side.  Mirror the rest.
    mirror = levels[a] < levels[b]
    pairs = np.concatenate([a * n + b, (b * n + a)[mirror]])
    pairs.sort()
    return pairs


def _registrations(
    centers: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cell ids and leaf indices: each leaf under its containing cell at
    every leaf level down to its own.

    A centre lies strictly inside each of its box's ancestors, so
    ``floor(c * 2**level)`` is that cell, exactly.
    """
    probe_levels = np.unique(levels)
    per_leaf = np.searchsorted(probe_levels, levels, side="right")
    leaf = np.repeat(np.arange(len(levels)), per_leaf)
    level = probe_levels[_ranges(per_leaf)]
    return _cell_ids(_cells(centers[leaf], level), level), leaf


def _probes(
    centers: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cell ids and leaf indices: the existing cells among the 27 around
    each leaf's own.  An id is linear in the coordinates, so a
    neighbour's id is the leaf's cell id plus its offset's."""
    cells = _cells(centers, levels)
    inside = np.ones((len(levels), len(_OFFSETS)), dtype=bool)
    for axis in range(3):
        coord = cells[:, axis, None] + _OFFSETS[:, axis]
        inside &= (coord >= 0) & (coord < (1 << levels)[:, None])
    shift = levels[:, None]
    step = (((_OFFSETS[:, 0] << shift) + _OFFSETS[:, 1]) << shift) + _OFFSETS[:, 2]
    leaf, slot = np.divmod(np.flatnonzero(inside), len(_OFFSETS))
    return _cell_ids(cells, levels)[leaf] + step[leaf, slot], leaf


def _join(
    reg_ids: np.ndarray,
    reg_leaf: np.ndarray,
    probe_ids: np.ndarray,
    probe_leaf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf pairs (prober, registered) for every registration whose cell
    a probe names: one sort, two ``searchsorted`` calls."""
    order = np.argsort(reg_ids, kind="stable")
    sorted_ids = reg_ids[order]
    first = np.searchsorted(sorted_ids, probe_ids, side="left")
    hits = np.searchsorted(sorted_ids, probe_ids, side="right") - first
    return (
        np.repeat(probe_leaf, hits),
        reg_leaf[order[np.repeat(first, hits) + _ranges(hits)]],
    )


def _cells(centers: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Integer coordinates of the level-``levels`` cells holding ``centers``."""
    return np.floor(centers * np.ldexp(1.0, levels)[:, None]).astype(np.int64)


def _cell_ids(cells: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Breadth-first ids of cells in a complete octree: unique across levels.

    Level ``l`` holds ids ``(8**l - 1) / 7`` onwards, ``x, y, z`` in
    ``l`` bits each.
    """
    base = ((1 << (3 * levels)) - 1) // 7
    return base + (((cells[:, 0] << levels) + cells[:, 1]) << levels) + cells[:, 2]


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for each count ``c``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
