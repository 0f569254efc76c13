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

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TreeError
from repro.fmm.tree import Octree

__all__ = ["UList", "build_ulist", "build_ulist_naive", "boxes_adjacent"]

#: Relative slack for the touch test; boxes meeting exactly at a face,
#: edge, or corner count as adjacent.
_SLACK = 1e-9

#: A cell's neighbouring coordinates along one axis, itself included.
_NEAR = np.array([-1, 0, 1])

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


@dataclass(frozen=True, eq=False)
class UList:
    """Every leaf's U-list in CSR form, leaf order.

    ``U(i)`` is ``neighbours[offsets[i]:offsets[i + 1]]``: leaf ``i``'s
    adjacent leaves (itself included), ascending.  ``len`` is the leaf
    count and ``ulist[i]`` is ``U(i)`` as a read-only array view.
    """

    offsets: np.ndarray
    neighbours: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, leaf: int) -> np.ndarray:
        leaf = range(len(self))[leaf]
        return self.neighbours[self.offsets[leaf] : self.offsets[leaf + 1]]

    def tolist(self) -> list[list[int]]:
        """The U-lists as Python lists (the form of :func:`build_ulist_naive`)."""
        return [u.tolist() for u in self]


def build_ulist(tree: Octree) -> UList:
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

    Returns ``U(B)`` of Algorithm 1 for every leaf, as a :class:`UList`
    read straight off the sorted pair keys.
    """
    n = tree.n_leaves
    if n == 0:
        raise TreeError("tree has no leaves")
    # Leaves below _ID_LEVELS register and probe at that level: its cells
    # contain them, so the join stays complete, only coarser.
    levels = np.minimum(tree.leaf_depths, _ID_LEVELS)
    pairs = _touching_pairs(tree.leaf_centers, tree.leaf_halves, levels)
    offsets = np.searchsorted(pairs, np.arange(n + 1) * n)
    pairs %= n  # key ``a * n + b`` -> neighbour ``b``
    for table in (offsets, pairs):
        table.setflags(write=False)
    return UList(offsets, pairs)


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
    leaf, k = np.nonzero(probe_levels <= levels[:, None])
    level = probe_levels[k]
    return _cell_ids(_cells(centers[leaf], level), level), leaf


def _probes(
    centers: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cell ids and leaf indices: the existing cells among the 27 around
    each leaf's own, offset by offset over the leaves in cell-id order
    (so the join's needles come in 27 ascending runs).  An id is linear
    in the coordinates: a sum of one term per axis."""
    cells = _cells(centers, levels)
    ids = _cell_ids(cells, levels)
    leaf = np.argsort(ids)
    ids, levels = ids[leaf], levels[leaf]
    # Per axis (x, y, z) and offset (-1, 0, 1): each leaf's neighbouring
    # coordinate, and its term of the id, ``x << 2 l``, ``y << l``, ``z``.
    near = cells[leaf].T[:, None, :] + _NEAR[:, None]
    exists = (near >= 0) & (near < (1 << levels))
    x, y, z = _NEAR[:, None] << (np.array([2, 1, 0])[:, None, None] * levels)
    probe = (ids + x)[:, None, None] + y[None, :, None] + z[None, None, :]
    inside = exists[0][:, None, None] & exists[1][None, :, None] & exists[2][None, None, :]
    return probe[inside], np.broadcast_to(leaf, probe.shape)[inside]


def _join(
    reg_ids: np.ndarray,
    reg_leaf: np.ndarray,
    probe_ids: np.ndarray,
    probe_leaf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf pairs (prober, registered) for every registration whose cell
    a probe names: one sort of the registrations, one ``searchsorted``
    of the probes over the distinct registered cells."""
    order = np.argsort(reg_ids)
    sorted_ids = reg_ids[order]
    first = np.flatnonzero(np.diff(sorted_ids, prepend=-1))  # ids are >= 0
    cells = sorted_ids[first]
    slot = np.searchsorted(cells, probe_ids)
    found = cells[np.minimum(slot, cells.size - 1)] == probe_ids
    slot = slot[found]
    hits = np.diff(first, append=sorted_ids.size)[slot]
    # Hit k, of probe p, is registration ``first[slot[p]] + k - h(p)``,
    # ``h(p)`` counting the hits of the probes before p.
    at = np.repeat(first[slot] - np.cumsum(hits) + hits, hits)
    at += np.arange(at.size)
    return np.repeat(probe_leaf[found], hits), reg_leaf[order[at]]


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
