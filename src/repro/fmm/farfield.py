"""Far-field evaluation: Cartesian multipole expansions for ``1/r``.

§V-C needed only the U-list (near-field) phase, but a usable n-body
library needs the other half.  This module implements a single-level
treecode far field: each leaf's sources are summarised by Cartesian
moments up to quadrupole order, and every target evaluates non-adjacent
leaves through the expansion instead of point-by-point:

    ``φ(t) ≈ M/r + (d·r̂)/r² + (r·Q·r)/(2·r⁵)``  with
    ``M = Σ dₛ``,  ``d = Σ dₛ·(xₛ−c)``,
    ``Q = Σ dₛ·(3·(xₛ−c)(xₛ−c)ᵀ − |xₛ−c|²·I)``   (traceless quadrupole)

where ``r = t − c`` is the target's offset from the leaf centre.  The
truncation error falls as ``(leaf radius / distance)³``; U-list
adjacency guarantees non-adjacent leaves are at least one box away, so
accuracy is uniformly controlled — the property tests quantify it.

Combined with :func:`repro.fmm.kernel.evaluate_ulist` this gives a full
``O(n·L)`` evaluation validated against the ``O(n²)`` direct sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ProfileError
from repro.fmm.kernel import evaluate_ulist, interact
from repro.fmm.tree import Octree
from repro.fmm.ulist import UList

__all__ = [
    "LeafMoments",
    "translate_moments",
    "compute_node_moments",
    "barnes_hut_evaluate",
    "compute_moments",
    "evaluate_moments",
    "evaluate_far_field",
    "evaluate_full",
    "direct_reference",
]


@dataclass(frozen=True)
class LeafMoments:
    """Multipole summary of one leaf's sources about its box centre."""

    center: np.ndarray
    monopole: float
    dipole: np.ndarray
    quadrupole: np.ndarray

    def __post_init__(self) -> None:
        if self.dipole.shape != (3,) or self.quadrupole.shape != (3, 3):
            raise ProfileError("moment shapes must be (3,) and (3, 3)")


def compute_moments(tree: Octree) -> list[LeafMoments]:
    """Monopole/dipole/traceless-quadrupole moments for every leaf."""
    moments: list[LeafMoments] = []
    for leaf in tree.leaves:
        pts = tree.positions[leaf.points]
        dens = tree.densities[leaf.points]
        offsets = pts - leaf.center
        monopole = float(dens.sum())
        dipole = offsets.T @ dens
        r2 = np.einsum("ij,ij->i", offsets, offsets)
        quad = 3.0 * np.einsum("i,ij,ik->jk", dens, offsets, offsets)
        quad -= np.eye(3) * float(dens @ r2)
        moments.append(
            LeafMoments(
                center=leaf.center.copy(),
                monopole=monopole,
                dipole=dipole,
                quadrupole=quad,
            )
        )
    return moments


def evaluate_moments(targets: np.ndarray, moments: LeafMoments) -> np.ndarray:
    """Evaluate one leaf's expansion at target points (vectorised)."""
    t = np.asarray(targets, dtype=float)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ProfileError(f"targets must be (m, 3), got {t.shape}")
    r = t - moments.center
    r2 = np.einsum("ij,ij->i", r, r)
    # replint: ignore[RL005] -- bit-exact: r2 is 0.0 only at the expansion centre itself (IEEE-754 x-x==0)
    if np.any(r2 == 0.0):
        raise ProfileError("far-field expansion evaluated at its own centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    phi = moments.monopole * inv_r
    phi += (r @ moments.dipole) * inv_r3
    phi += 0.5 * np.einsum("ij,jk,ik->i", r, moments.quadrupole, r) * inv_r5
    return phi


def evaluate_far_field(
    tree: Octree,
    ulist: UList,
    *,
    moments: list[LeafMoments] | None = None,
) -> np.ndarray:
    """φ contributions from every non-adjacent (far) leaf, per point."""
    if len(ulist) != tree.n_leaves:
        raise ProfileError(
            f"ulist has {len(ulist)} entries for {tree.n_leaves} leaves"
        )
    if moments is None:
        moments = compute_moments(tree)
    phi = np.zeros(tree.n_points)
    all_leaves = set(range(tree.n_leaves))
    for leaf in tree.leaves:
        near = set(ulist[leaf.index])
        targets = tree.positions[leaf.points]
        for far_index in all_leaves - near:
            phi[leaf.points] += evaluate_moments(targets, moments[far_index])
    return phi


def evaluate_full(
    tree: Octree, ulist: UList
) -> tuple[np.ndarray, dict[str, float]]:
    """Complete evaluation: direct near field + multipole far field.

    Returns (φ, stats) where stats reports the near/far pair counts —
    the treecode's ``O(n·L)`` versus the direct method's ``O(n²)``.
    """
    near_phi, near_pairs = evaluate_ulist(tree, ulist)
    far_phi = evaluate_far_field(tree, ulist)
    far_cells = int(np.dot(tree.leaf_sizes(), tree.n_leaves - np.diff(ulist.offsets)))
    direct_pairs = tree.n_points * tree.n_points
    return near_phi + far_phi, {
        "near_pairs": float(near_pairs),
        "far_cell_evaluations": float(far_cells),
        "direct_pairs": float(direct_pairs),
        "speedup_proxy": direct_pairs / (near_pairs + far_cells),
    }


def direct_reference(tree: Octree) -> np.ndarray:
    """The ``O(n²)`` all-pairs oracle (vectorised; self-pairs skipped)."""
    return interact(tree.positions, tree.positions, tree.densities)


# ---------------------------------------------------------------------------
# Hierarchical (Barnes-Hut) evaluation
# ---------------------------------------------------------------------------


def translate_moments(child: LeafMoments, new_center: np.ndarray) -> LeafMoments:
    """M2M: shift a moment set to a new expansion centre — exactly.

    With ``r = c_child − c_new`` and ``y = x − c_child``:

    * ``M' = M``;
    * ``D' = D + M·r``;
    * ``Q' = Q + 3(D rᵀ + r Dᵀ) − 2(D·r)·I + M·(3 r rᵀ − |r|²·I)``.

    The translation is *exact* (Cartesian moments of fixed order close
    under shifts), so a parent's translated-and-summed moments equal the
    moments computed directly from its points — a property test pins
    this identity.
    """
    new_center = np.asarray(new_center, dtype=float)
    r = child.center - new_center
    monopole = child.monopole
    dipole = child.dipole + monopole * r
    outer_dr = np.outer(child.dipole, r)
    quadrupole = (
        child.quadrupole
        + 3.0 * (outer_dr + outer_dr.T)
        - 2.0 * float(child.dipole @ r) * np.eye(3)
        + monopole * (3.0 * np.outer(r, r) - float(r @ r) * np.eye(3))
    )
    return LeafMoments(
        center=new_center.copy(),
        monopole=monopole,
        dipole=dipole,
        quadrupole=quadrupole,
    )


def _merge_moments(center: np.ndarray, parts: list[LeafMoments]) -> LeafMoments:
    """Sum several moment sets about a common centre (after M2M shifts)."""
    shifted = [translate_moments(p, center) for p in parts]
    return LeafMoments(
        center=np.asarray(center, dtype=float).copy(),
        monopole=sum(s.monopole for s in shifted),
        dipole=sum((s.dipole for s in shifted), np.zeros(3)),
        quadrupole=sum((s.quadrupole for s in shifted), np.zeros((3, 3))),
    )


def compute_node_moments(tree: Octree) -> list[LeafMoments]:
    """Moments for every tree node, bottom-up via M2M (upward pass)."""
    if not tree.nodes:
        raise ProfileError("tree has no node structure")
    leaf_moments = compute_moments(tree)
    node_moments: list[LeafMoments | None] = [None] * len(tree.nodes)
    # Children always have larger indices (pre-order build), so a reverse
    # sweep sees every child before its parent.
    for node in reversed(tree.nodes):
        if node.leaf_index is not None:
            node_moments[node.index] = leaf_moments[node.leaf_index]
        else:
            parts = [node_moments[c] for c in node.children]
            if any(p is None for p in parts):  # pragma: no cover - invariant
                raise ProfileError("child moments missing during upward pass")
            node_moments[node.index] = _merge_moments(node.center, parts)  # type: ignore[arg-type]
    return node_moments  # type: ignore[return-value]


def barnes_hut_evaluate(
    tree: Octree, *, theta: float = 0.4
) -> tuple[np.ndarray, dict[str, float]]:
    """Full hierarchical evaluation with a multipole acceptance criterion.

    Per target leaf ``B``, the tree is traversed from the root: a node
    whose opening ratio ``size / distance`` is below ``theta`` is
    evaluated through its (M2M-aggregated) moments for all of ``B``'s
    points at once; otherwise its children are visited; leaf-level
    encounters fall back to the direct kernel.  Distances are measured
    from the *surface* of the target leaf (conservative MAC), so the
    acceptance bound holds for every point in the leaf.

    Returns ``(φ, stats)``; smaller ``theta`` is more accurate and more
    expensive.  The classic ``O(n log n)`` shape — node evaluations per
    leaf grow logarithmically — is asserted by the tests.
    """
    if not 0.0 < theta < 1.0:
        raise ProfileError(f"theta must be in (0, 1), got {theta}")
    node_moments = compute_node_moments(tree)
    phi = np.zeros(tree.n_points)
    approx_evals = 0
    direct_pairs = 0

    for leaf in tree.leaves:
        targets = tree.positions[leaf.points]
        stack = [0]
        while stack:
            node = tree.nodes[stack.pop()]
            offset = node.center - leaf.center
            distance = float(np.linalg.norm(offset))
            # Conservative: measure from the target leaf's bounding sphere.
            effective = distance - leaf.half_width * math.sqrt(3.0)
            size = 2.0 * node.half_width
            if effective > 0 and size / effective < theta:
                phi[leaf.points] += evaluate_moments(
                    targets, node_moments[node.index]
                )
                approx_evals += 1
                continue
            if node.leaf_index is not None:
                source = tree.leaves[node.leaf_index]
                phi[leaf.points] += interact(
                    targets,
                    tree.positions[source.points],
                    tree.densities[source.points],
                )
                direct_pairs += leaf.size * source.size
                continue
            stack.extend(node.children)

    return phi, {
        "approx_evaluations": float(approx_evals),
        "direct_pairs": float(direct_pairs),
        "all_pairs": float(tree.n_points) ** 2,
        "direct_fraction": direct_pairs / float(tree.n_points) ** 2,
    }
