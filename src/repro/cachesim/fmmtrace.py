"""The U-list phase's address stream, simulated through real caches.

Memory layout (matching §V-C's single-precision data):

* source records: 16 B each (x, y, z, density), packed in point order;
* potentials: 4 B each, in a separate region.

Access pattern of the reference variant (plain cached loads, no
register blocking): target leaves are processed block-by-block
(``targets_per_block`` points per block); for each source leaf in the
target leaf's U-list, every *warp* of the block streams all of that
leaf's source records (one coalesced access per record per warp — 32
threads reading the same record broadcast).  Each target's potential is
read once at block start and written once at block end.

Two engines produce the same counters:

* ``engine="scalar"`` replays the stream one ``access_bytes`` call at a
  time — the oracle the property tests trust;
* ``engine="batch"`` (default) *compiles* the stream into one int64
  line-address array (:func:`compile_ulist_trace`) and pushes it
  through :meth:`~repro.cachesim.cache.CacheHierarchy.simulate`, the
  array-LRU fast path — bit-identical counters at a fraction of the
  cost.

:func:`simulate_ulist_traffic` reports the measured per-level traffic
next to the analytic counter model's estimate for the same geometry —
the validation the tests and the ablation bench lean on.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.cachesim.cache import CacheHierarchy, HierarchyCounters
from repro.exceptions import SimulationError
from repro.fmm.counters import (
    POINT_BYTES, TrafficCounters, count_traffic, sweep_lengths,
)
from repro.fmm.tree import Octree
from repro.fmm.ulist import UList
from repro.fmm.variants import MemoryPath, Variant

__all__ = [
    "CompiledTrace",
    "TraceResult",
    "compile_ulist_trace",
    "simulate_ulist_traffic",
]

_WARP = 32
_PHI_BYTES = 4


@dataclass(frozen=True)
class TraceResult:
    """Measured (simulated) versus modelled traffic for one variant."""

    variant: Variant
    measured: HierarchyCounters
    modelled: TrafficCounters
    pairs: int

    @property
    def measured_l1_bytes_per_pair(self) -> float:
        return self.measured.l1_bytes / self.pairs

    @property
    def modelled_l1_bytes_per_pair(self) -> float:
        return self.modelled.q_l1 / self.pairs

    @property
    def measured_refill_ratio(self) -> float:
        """L2-served over L1-served bytes — the l2_refill_ratio analogue."""
        if self.measured.l1_bytes == 0:
            return 0.0
        return self.measured.l2_bytes / self.measured.l1_bytes


@dataclass(frozen=True)
class CompiledTrace:
    """One variant's U-list stream as a flat line-address array.

    ``line_addrs`` holds one entry per cache-line touch, in exact access
    order — the same order the scalar engine's ``access_bytes`` calls
    produce.  ``pairs`` is the interaction-pair count of the traversal.
    """

    line_addrs: np.ndarray
    pairs: int

    @property
    def n_accesses(self) -> int:
        return int(self.line_addrs.size)


def _check_variant(variant: Variant) -> None:
    if variant.path is not MemoryPath.L1L2:
        raise SimulationError(
            "cache-trace validation applies to L1/L2-path variants only"
        )


def _ragged_arange(counts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=dtype)
    starts = (np.cumsum(counts) - counts).astype(dtype, copy=False)
    return np.arange(total, dtype=dtype) - np.repeat(starts, counts)


def _expand_lines(
    byte_addrs: np.ndarray, sizes: np.ndarray, line_bytes: int
) -> np.ndarray:
    """Expand sized reads to the line touches each range spans."""
    first = byte_addrs // line_bytes
    last = (byte_addrs + sizes - 1) // line_bytes
    counts = last - first + 1
    return np.repeat(first, counts) + _ragged_arange(counts)


#: Compiled traces per tree, keyed by tree identity with a weakref
#: eviction callback (trees are unhashable); the entry pins the ulist
#: its traces were compiled from and starts afresh if a different ulist
#: object arrives for the same tree.
_TRACE_MEMO: dict[int, tuple] = {}


def _traces(tree: Octree, ulist: UList) -> dict[tuple[int, int], CompiledTrace]:
    """The memo of traces compiled from ``(tree, ulist)``."""
    key = id(tree)
    entry = _TRACE_MEMO.get(key)
    if entry is not None and entry[0]() is tree and entry[1] is ulist:
        return entry[2]
    traces: dict[tuple[int, int], CompiledTrace] = {}
    _TRACE_MEMO[key] = (
        weakref.ref(tree, lambda _, key=key: _TRACE_MEMO.pop(key, None)),
        ulist,
        traces,
    )
    return traces


def compile_ulist_trace(
    tree: Octree,
    ulist: UList,
    variant: Variant,
    *,
    line_bytes: int = 128,
) -> CompiledTrace:
    """Emit one variant's full U-list address stream as a line array.

    The stream is identical — access for access — to the scalar replay
    in :func:`simulate_ulist_traffic`'s ``engine="scalar"`` path: per
    target block, the φ reads, then per U-list source leaf ``warps``
    sweeps over its records, then the φ writes; sized reads expand to
    every line their byte range spans.  The per-access arrays use the
    narrowest index type the trace permits (int32 for any realistic
    geometry) — the streams are memory-bound to build, so width is
    speed.

    The stream depends on the variant only through its target-block
    size, so compiled traces are memoised per ``(tree, ulist,
    targets_per_block, line_bytes)`` — the §V-C study's 160 L1/L2
    variants compile just five distinct traces.  The returned arrays
    are marked read-only because they are shared between calls.
    """
    _check_variant(variant)
    if len(ulist) != tree.n_leaves:
        raise SimulationError(
            f"ulist has {len(ulist)} entries for {tree.n_leaves} leaves"
        )
    if line_bytes <= 0:
        raise SimulationError("line size must be positive")

    n_leaves = tree.n_leaves
    phi_base = tree.n_points * POINT_BYTES
    tpb = variant.targets_per_block
    traces = _traces(tree, ulist)
    cached = traces.get((tpb, line_bytes))
    if cached is not None:
        return cached
    # Point indices narrowed to int32 for any tree this package can build.
    sizes, offsets = tree.leaf_sizes(), tree.leaf_offsets
    points = tree.leaf_points.astype(np.int32 if tree.n_points < (1 << 31) else np.int64)
    neighbours, nbr_offsets = ulist.neighbours, ulist.offsets
    sweep_len = sweep_lengths(tree, ulist)  # per leaf, one sweep's source points

    # Target blocks: ceil(leaf size / tpb) per leaf, last one ragged.
    blocks_per_leaf = -(-sizes // tpb)
    n_blocks = int(blocks_per_leaf.sum())
    if n_blocks == 0:
        return CompiledTrace(np.zeros(0, dtype=np.int64), 0)
    block_leaf = np.repeat(np.arange(n_leaves, dtype=np.int64), blocks_per_leaf)
    block_index = _ragged_arange(blocks_per_leaf)
    block_start = block_index * tpb
    block_size = np.minimum(sizes[block_leaf] - block_start, tpb)
    block_warps = -(-block_size // _WARP)

    # Segment layout per block: φ reads | source sweeps | φ writes.
    src_len = block_warps * sweep_len[block_leaf]
    seg_offsets = np.append(0, np.cumsum(2 * block_size + src_len))
    total = int(seg_offsets[-1])
    max_addr = phi_base + tree.n_points * _PHI_BYTES
    idx = np.int32 if max(total, max_addr) < (1 << 31) else np.int64
    # Per-block bases, pre-narrowed so the big expansions stay narrow.
    seg_base = seg_offsets[:-1].astype(idx)
    bsize = block_size.astype(idx)
    bsrc = src_len.astype(idx)
    byte_addrs = np.empty(total, dtype=idx)

    # φ reads and writes: the block's target points, in leaf order.
    phi_block = np.repeat(np.arange(n_blocks, dtype=idx), block_size)
    phi_within = _ragged_arange(block_size, dtype=idx)
    phi_targets = points[
        (offsets[block_leaf] + block_start).astype(idx)[phi_block] + phi_within
    ]
    phi_addr = (phi_base + phi_targets * _PHI_BYTES).astype(idx, copy=False)
    read_pos = seg_base[phi_block] + phi_within
    write_pos = read_pos + bsize[phi_block] + bsrc[phi_block]
    byte_addrs[read_pos] = phi_addr
    byte_addrs[write_pos] = phi_addr

    # Source sweeps: for every (block, neighbour) pair, `warps` copies
    # of the neighbour leaf's point records, in point order.  All the
    # repeats preserve generation order, so the emissions land in the
    # exact scalar iteration order.
    pair_count = np.diff(nbr_offsets)[block_leaf]
    pair_block = np.repeat(np.arange(n_blocks, dtype=idx), pair_count)
    pair_within = _ragged_arange(pair_count, dtype=idx)
    pair_source = neighbours[
        nbr_offsets[:-1][block_leaf].astype(idx)[pair_block] + pair_within
    ]
    sweep_of_pair = np.repeat(
        np.arange(pair_block.size, dtype=idx), block_warps[pair_block]
    )
    sweep_source = pair_source[sweep_of_pair]
    emit_counts = sizes[sweep_source]
    src_total = int(emit_counts.sum())
    # Emission index k of sweep s reads point `offsets[leaf(s)] + k -
    # emit_start(s)`: one per-sweep base shift replaces per-emission
    # sweep-id and within-sweep index arrays.
    emit_shift = (offsets[sweep_source] - (np.cumsum(emit_counts) - emit_counts)).astype(idx)
    source_points = points[
        np.repeat(emit_shift, emit_counts) + np.arange(src_total, dtype=idx)
    ]
    # Likewise emission k of block b lands at stream position
    # `seg_base[b] + bsize[b] + k - src_start(b)`.
    src_shift = seg_base + bsize - (np.cumsum(src_len) - src_len).astype(idx)
    src_pos = np.repeat(src_shift, src_len) + np.arange(src_total, dtype=idx)
    byte_addrs[src_pos] = (source_points * POINT_BYTES).astype(idx, copy=False)

    pairs = int(np.sum(block_size * sweep_len[block_leaf]))

    if line_bytes % POINT_BYTES == 0:
        # 16 B records and 4 B potentials never straddle such a line:
        # one touch per access (a shift when the line size is a power
        # of two — addresses are non-negative, so it is the floor div).
        if line_bytes & (line_bytes - 1) == 0:
            line_addrs = byte_addrs >> (line_bytes.bit_length() - 1)
        else:
            line_addrs = byte_addrs // line_bytes
    else:
        is_source = np.zeros(total, dtype=bool)
        is_source[src_pos] = True
        access_sizes = np.where(is_source, POINT_BYTES, _PHI_BYTES)
        line_addrs = _expand_lines(byte_addrs, access_sizes, line_bytes)
    line_addrs.setflags(write=False)
    trace = CompiledTrace(line_addrs=line_addrs, pairs=pairs)
    traces[(tpb, line_bytes)] = trace
    return trace


def _replay_scalar(
    tree: Octree,
    ulist: UList,
    variant: Variant,
    caches: CacheHierarchy,
) -> int:
    """The original per-access Python loop (the oracle); returns pairs."""
    phi_base = tree.n_points * POINT_BYTES
    pairs = 0
    tpb = variant.targets_per_block
    for leaf in tree.leaves:
        targets = leaf.points
        for block_start in range(0, len(targets), tpb):
            block = targets[block_start : block_start + tpb]
            warps = math.ceil(len(block) / _WARP)
            # Read each target's running potential once per block.
            for t in block:
                caches.access_bytes(phi_base + int(t) * _PHI_BYTES, _PHI_BYTES)
            for source_leaf_index in ulist[leaf.index]:
                source_points = tree.leaves[source_leaf_index].points
                for _ in range(warps):
                    for s in source_points:
                        caches.access_bytes(int(s) * POINT_BYTES, POINT_BYTES)
                pairs += len(block) * len(source_points)
            # Write back the potentials (modelled as a read-for-ownership).
            for t in block:
                caches.access_bytes(phi_base + int(t) * _PHI_BYTES, _PHI_BYTES)
    return pairs


def simulate_ulist_traffic(
    tree: Octree,
    ulist: UList,
    variant: Variant,
    *,
    hierarchy: CacheHierarchy | None = None,
    engine: str = "batch",
) -> TraceResult:
    """Run one L1/L2-path variant's address stream through real caches.

    Only the plain cached path is meaningful here (shared/texture
    variants move their reuse outside L1/L2 by construction).  The
    default ``engine="batch"`` compiles the stream and simulates it
    with the array-LRU path; ``engine="scalar"`` replays it one access
    at a time.  Both produce identical counters.
    """
    _check_variant(variant)
    if engine not in ("batch", "scalar"):
        raise SimulationError(f"unknown trace engine {engine!r}")
    caches = hierarchy or CacheHierarchy.gtx580_like()
    caches.reset()

    if engine == "batch":
        compiled = compile_ulist_trace(
            tree, ulist, variant, line_bytes=caches.l1.line_bytes
        )
        caches.simulate(compiled.line_addrs)
        pairs = compiled.pairs
    else:
        pairs = _replay_scalar(tree, ulist, variant, caches)

    return TraceResult(
        variant=variant,
        measured=caches.counters(),
        modelled=count_traffic(tree, ulist, variant),
        pairs=pairs,
    )
