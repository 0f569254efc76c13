"""Fast multipole method U-list phase — the paper's §V-C case study.

The FMM's U-list (near-field) phase dominates its cost: for every leaf
box of a spatial octree, all pairs of points between the leaf and its
geometric neighbours interact directly (Algorithm 1: 11 flops per pair,
counting the reciprocal square root as one flop).

This package implements the method for real — points, octree, U-list
construction, a vectorised interaction kernel, and a multipole far
field (:mod:`repro.fmm.farfield`) validated against the O(n²) direct
sum — plus the apparatus
of the paper's study: a ~390-strong implementation-variant space with
per-variant DRAM/L1/L2 traffic counters (our analogue of the Compute
Visual Profiler), and the energy-estimation workflow that discovers the
cache-energy term (:mod:`repro.fmm.estimator`).
"""

from repro.fmm.counters import TrafficCounters, count_traffic
from repro.fmm.estimator import FmmEnergyStudy, StudyResult, VariantObservation
from repro.fmm.farfield import (
    LeafMoments,
    barnes_hut_evaluate,
    compute_node_moments,
    translate_moments,
    compute_moments,
    direct_reference,
    evaluate_far_field,
    evaluate_full,
)
from repro.fmm.kernel import (
    evaluate_ulist,
    interact,
    interact_reference,
    FLOPS_PER_PAIR,
)
from repro.fmm.points import clustered_cloud, plummer_cloud, uniform_cloud
from repro.fmm.tree import Leaf, Node, Octree
from repro.fmm.ulist import UList, build_ulist
from repro.fmm.variants import Variant, MemoryPath, generate_variants

__all__ = [
    "uniform_cloud",
    "clustered_cloud",
    "plummer_cloud",
    "Octree",
    "Leaf",
    "Node",
    "UList",
    "build_ulist",
    "interact",
    "interact_reference",
    "evaluate_ulist",
    "FLOPS_PER_PAIR",
    "TrafficCounters",
    "count_traffic",
    "Variant",
    "MemoryPath",
    "generate_variants",
    "FmmEnergyStudy",
    "StudyResult",
    "VariantObservation",
    "LeafMoments",
    "compute_moments",
    "compute_node_moments",
    "translate_moments",
    "barnes_hut_evaluate",
    "evaluate_far_field",
    "evaluate_full",
    "direct_reference",
]
