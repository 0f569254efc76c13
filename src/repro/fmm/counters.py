"""Per-variant traffic counters — the Compute Visual Profiler analogue.

The paper derives a variant's flop count from the input data and its
DRAM bytes from hardware counters (L2 read misses), and later reads the
L1/L2 byte counters to quantify cache traffic.  Our counters compute the
same quantities from the actual tree/U-list geometry plus the variant's
staging strategy:

* **pairs / W** — exact: ``Σ_B |B| · Σ_{S ∈ U(B)} |S|`` point pairs at
  11 flops each;
* **Q_dram** — compulsory point traffic times a reuse-dependent re-fetch
  factor (bigger target blocks touch each source leaf from fewer blocks)
  plus potential read/write;
* **Q_L1 / Q_L2** — visible cache-read bytes.  For the L1/L2 path these
  scale with *pairs* (every interaction re-reads its source through the
  cache, coalescing and register blocking dividing the cost); for the
  shared/texture paths the L1/L2 counters see only the staging traffic,
  while the bulk of source reuse flows through shared memory or the
  texture cache — captured in the *hidden* ``q_shared``/``q_texture``
  fields, which the profiler-visible counters do NOT include.

Point records are 16 bytes (x, y, z, density as float32); potentials are
4-byte reads plus 4-byte writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ProfileError
from repro.fmm.kernel import FLOPS_PER_PAIR
from repro.fmm.tree import Octree
from repro.fmm.ulist import UList
from repro.fmm.variants import MemoryPath, Variant

__all__ = ["TrafficCounters", "count_pairs", "count_traffic", "sweep_lengths"]

#: Bytes per source-point record: x, y, z, density (float32 each).
POINT_BYTES = 16
#: Bytes per potential value (float32).
PHI_BYTES = 4


@dataclass(frozen=True, slots=True)
class TrafficCounters:
    """Operation and byte counts for one variant on one tree.

    ``q_l1``/``q_l2`` are profiler-visible; ``q_shared``/``q_texture``
    are real data movement invisible to L1/L2 counters (and priced
    differently by the device truth).
    """

    pairs: int
    work: float
    q_dram: float
    q_l1: float
    q_l2: float
    q_shared: float
    q_texture: float

    @property
    def q_cache_visible(self) -> float:
        """What the profiler's L1+L2 byte counters report."""
        return self.q_l1 + self.q_l2

    @property
    def intensity_dram(self) -> float:
        """Two-level intensity seen by eq. (2): ``W / Q_dram``."""
        return self.work / self.q_dram


def sweep_lengths(tree: Octree, ulist: UList) -> np.ndarray:
    """Per leaf, the source points of one sweep over its whole U-list:
    one gather of leaf sizes over the neighbours, segment-summed."""
    if len(ulist) != tree.n_leaves:
        raise ProfileError(
            f"ulist has {len(ulist)} entries for {tree.n_leaves} leaves"
        )
    cumulative = np.append(0, np.cumsum(tree.leaf_sizes()[ulist.neighbours]))
    return cumulative[ulist.offsets[1:]] - cumulative[ulist.offsets[:-1]]


def count_pairs(tree: Octree, ulist: UList) -> int:
    """Exact number of point pairs the U-list phase evaluates:
    ``Σ_B |B| · Σ_{S ∈ U(B)} |S|``, all-integer."""
    return int(np.dot(tree.leaf_sizes(), sweep_lengths(tree, ulist)))


def l2_refill_ratio(variant: Variant) -> float:
    """Fraction of L1 reads that refill from L2, for cached-path variants.

    Grows with the per-block working set (``source_tile ×
    targets_per_block``): bigger footprints overflow L1 more often.
    Clamped to ``[0.15, 0.9]``.  This per-variant variation is what limits
    a *single* fitted cache coefficient — the hidden truth prices L1 and
    L2 bytes differently, so variants whose L1:L2 mix differs from the
    reference keep a few percent of residual error, the paper's 4.1%.
    """
    footprint = variant.source_tile * variant.targets_per_block
    ratio = 0.2 + 0.12 * math.log2(footprint / 256.0)
    return min(0.9, max(0.15, ratio))


def _dram_refetch_factor(variant: Variant) -> float:
    """How many times the average source point travels from DRAM.

    Each source leaf is touched by ~27 neighbouring target leaves; the
    cache retains it across consecutive touches with a probability that
    improves with larger target blocks (fewer distinct block launches
    between re-uses).  Explicit staging paths prefetch more effectively.
    """
    base = {
        MemoryPath.L1L2: 2.2,
        MemoryPath.SHARED: 1.3,
        MemoryPath.TEXTURE: 1.6,
    }[variant.path]
    # Larger blocks → fewer re-fetches; anchored at 1.0 for 128 targets.
    block_factor = (1.0 + 128.0 / variant.targets_per_block) / 2.0
    return base * block_factor


def count_traffic(
    tree: Octree,
    ulist: UList,
    variant: Variant,
    *,
    pairs: int | None = None,
) -> TrafficCounters:
    """Full counters for a variant on a tree (see module docstring).

    ``pairs`` is geometry-only (identical for every variant); callers
    sweeping many variants over one tree can pass the
    :func:`count_pairs` result once instead of recounting per variant.
    """
    if pairs is None:
        pairs = count_pairs(tree, ulist)
    n = tree.n_points
    work = float(FLOPS_PER_PAIR * pairs)

    q_dram = n * POINT_BYTES * _dram_refetch_factor(variant) + n * 2.0 * PHI_BYTES

    reg = variant.register_block
    if variant.path is MemoryPath.L1L2:
        # Every pair pulls its source record through L1 (warp coalescing
        # lets 16 B serve ~2 lanes after replays); the fraction refilled
        # from L2 grows with the working set a block touches.
        q_l1 = pairs * POINT_BYTES / (1.8 * reg)
        q_l2 = q_l1 * l2_refill_ratio(variant)
        q_shared = 0.0
        q_texture = 0.0
    elif variant.path is MemoryPath.SHARED:
        # L1/L2 carry only the staging loads (each DRAM byte passes once);
        # per-pair reuse happens in shared memory.
        q_l1 = q_dram
        q_l2 = q_dram
        q_shared = pairs * POINT_BYTES / (8.0 * reg)
        q_texture = 0.0
    else:
        # Texture path: reads bypass L1; L2 backs the texture cache.
        q_l1 = n * POINT_BYTES * 0.5
        q_l2 = q_dram
        q_shared = 0.0
        q_texture = pairs * POINT_BYTES / (6.0 * reg)

    return TrafficCounters(
        pairs=pairs,
        work=work,
        q_dram=float(q_dram),
        q_l1=float(q_l1),
        q_l2=float(q_l2),
        q_shared=float(q_shared),
        q_texture=float(q_texture),
    )
