"""Algorithm 1: the direct (U-list) interaction kernel.

For each target point ``t`` and source point ``s`` with density ``d_s``:

    ``(δx, δy, δz) = t − s``
    ``r = δx² + δy² + δz²``
    ``w = rsqrt(r)``
    ``φ_t += d_s · w``

The paper counts 11 scalar flops per pair (three subtractions, three
squarings, two adds, the reciprocal square root as one flop, one
multiply, one accumulate).  Self-pairs (``r = 0``) are skipped — a point
does not interact with itself.

Two implementations: a scalar reference (the oracle for property tests)
and a numpy-vectorised version that tiles targets-by-sources, which the
examples and benchmarks use.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProfileError
from repro.fmm.tree import Octree
from repro.fmm.ulist import UList

__all__ = ["FLOPS_PER_PAIR", "interact", "interact_reference", "evaluate_ulist"]

#: Algorithm 1's operation count per point pair (rsqrt = 1 flop).
FLOPS_PER_PAIR = 11


def interact_reference(
    targets: np.ndarray,
    sources: np.ndarray,
    densities: np.ndarray,
) -> np.ndarray:
    """Scalar-loop reference of Algorithm 1; returns φ per target.

    Deliberately written as the pseudocode reads — four nested loops
    collapsed to two — to serve as the correctness oracle.
    """
    t = np.asarray(targets, dtype=float)
    s = np.asarray(sources, dtype=float)
    d = np.asarray(densities, dtype=float)
    _validate(t, s, d)
    phi = np.zeros(len(t))
    for i in range(len(t)):
        for j in range(len(s)):
            dx = t[i, 0] - s[j, 0]
            dy = t[i, 1] - s[j, 1]
            dz = t[i, 2] - s[j, 2]
            r = dx * dx + dy * dy + dz * dz
            # replint: ignore[RL005] -- bit-exact: r is 0.0 only for a point against itself (IEEE-754 x-x==0)
            if r == 0.0:
                continue  # skip self-interaction
            phi[i] += d[j] / np.sqrt(r)
    return phi


def interact(
    targets: np.ndarray,
    sources: np.ndarray,
    densities: np.ndarray,
    *,
    target_tile: int = 512,
) -> np.ndarray:
    """Vectorised Algorithm 1: pairwise rsqrt accumulation.

    Broadcasting forms an ``(m, k)`` distance matrix one target tile at
    a time (``target_tile`` rows, default 512), so peak memory is
    ``O(target_tile · k)`` instead of ``O(m · k)`` — large target sets
    no longer materialise a full pairwise matrix.  Each target row's
    arithmetic is unchanged by the tiling (rows are independent), so
    results are bitwise identical for every tile size.
    """
    t = np.asarray(targets, dtype=float)
    s = np.asarray(sources, dtype=float)
    d = np.asarray(densities, dtype=float)
    _validate(t, s, d)
    if target_tile < 1:
        raise ProfileError(f"target_tile must be >= 1, got {target_tile}")
    m = t.shape[0]
    phi = np.empty(m)
    for start in range(0, m, target_tile):
        block = t[start : start + target_tile]
        delta = block[:, None, :] - s[None, :, :]
        r = np.einsum("ijk,ijk->ij", delta, delta)
        with np.errstate(divide="ignore"):
            w = np.where(r > 0.0, 1.0 / np.sqrt(r), 0.0)
        # einsum (not ``w @ d``): its per-row accumulation order is
        # fixed by the source axis alone, while BLAS gemv reorders with
        # the row count — which would break tile-size invariance in the
        # last bit.
        phi[start : start + target_tile] = np.einsum("ij,j->i", w, d)
    return phi


def _validate(t: np.ndarray, s: np.ndarray, d: np.ndarray) -> None:
    if t.ndim != 2 or t.shape[1] != 3:
        raise ProfileError(f"targets must be (m, 3), got {t.shape}")
    if s.ndim != 2 or s.shape[1] != 3:
        raise ProfileError(f"sources must be (k, 3), got {s.shape}")
    if d.shape != (s.shape[0],):
        raise ProfileError("densities must have one entry per source")


def evaluate_ulist(tree: Octree, ulist: UList) -> tuple[np.ndarray, int]:
    """Run the full U-list phase over a tree.

    Returns ``(phi, pairs)``: the potential for every point (tree point
    order) and the number of point pairs evaluated.  Multiply pairs by
    :data:`FLOPS_PER_PAIR` for the phase's ``W``; self-pairs inside a
    leaf's own interaction are included in the pair count — the hardware
    executes them (the kernel computes and discards) — matching how the
    paper's flop derivation from input data works.
    """
    if len(ulist) != tree.n_leaves:
        raise ProfileError(
            f"ulist has {len(ulist)} entries for {tree.n_leaves} leaves"
        )
    phi = np.zeros(tree.n_points)
    pairs = 0
    for leaf in tree.leaves:
        targets = tree.positions[leaf.points]
        for source in ulist[leaf.index]:
            sources = tree.leaves[source].points
            phi[leaf.points] += interact(
                targets, tree.positions[sources], tree.densities[sources]
            )
            pairs += leaf.size * sources.size
    return phi, pairs
