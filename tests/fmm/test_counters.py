"""Traffic counters: the simulated profiler."""

from __future__ import annotations

import pytest

from repro.fmm.counters import (
    PHI_BYTES,
    POINT_BYTES,
    TrafficCounters,
    count_pairs,
    count_traffic,
    l2_refill_ratio,
    sweep_lengths,
)
from repro.fmm.kernel import FLOPS_PER_PAIR
from repro.fmm.points import clustered_cloud, plummer_cloud, uniform_cloud
from repro.fmm.tree import Octree
from repro.fmm.ulist import build_ulist, build_ulist_naive
from repro.fmm.variants import MemoryPath, Variant, generate_variants, reference_variant


class TestPairCounting:
    def test_pairs_formula(self, small_tree, small_ulist):
        sizes = small_tree.leaf_sizes()
        expected = sum(
            int(sizes[b]) * sum(int(sizes[s]) for s in neighbors)
            for b, neighbors in enumerate(small_ulist)
        )
        assert count_pairs(small_tree, small_ulist) == expected

    @pytest.mark.parametrize(
        "generator", [uniform_cloud, clustered_cloud, plummer_cloud],
        ids=["uniform", "clustered", "plummer"],
    )
    def test_pairs_equal_the_per_leaf_loop(self, generator):
        """One gather and segment sum over the CSR U-list count what a
        loop over the leaf objects and their neighbour lists counts."""
        positions, densities = generator(3000, seed=5)
        tree = Octree.build(positions, densities, leaf_capacity=24)
        ulist = build_ulist(tree)
        expected = sum(
            leaf.size * sum(tree.leaves[s].size for s in neighbours)
            for leaf, neighbours in zip(tree.leaves, build_ulist_naive(tree))
        )
        assert count_pairs(tree, ulist) == expected
        assert sweep_lengths(tree, ulist).tolist() == [
            sum(tree.leaves[s].size for s in neighbours) for neighbours in ulist.tolist()
        ]

    def test_work_is_11_per_pair(self, small_tree, small_ulist):
        counters = count_traffic(small_tree, small_ulist, reference_variant())
        assert counters.work == FLOPS_PER_PAIR * counters.pairs

    def test_mismatched_ulist(self, small_tree):
        from repro.exceptions import ProfileError

        with pytest.raises(ProfileError):
            count_pairs(small_tree, [[0]])


class TestTrafficModels:
    def test_l1l2_cache_traffic_scales_with_pairs(self, small_tree, small_ulist):
        counters = count_traffic(small_tree, small_ulist, reference_variant())
        per_pair = counters.q_cache_visible / counters.pairs
        assert 2.0 < per_pair < 20.0  # a few bytes per interaction

    def test_register_blocking_halves_cache_traffic(self, small_tree, small_ulist):
        reg1 = Variant("a", MemoryPath.L1L2, 128, 32, 1, 1)
        reg2 = Variant("b", MemoryPath.L1L2, 128, 32, 1, 2)
        c1 = count_traffic(small_tree, small_ulist, reg1)
        c2 = count_traffic(small_tree, small_ulist, reg2)
        assert c2.q_l1 == pytest.approx(c1.q_l1 / 2)

    def test_shared_path_hides_traffic_from_l1l2_counters(
        self, small_tree, small_ulist
    ):
        cached = count_traffic(small_tree, small_ulist, reference_variant())
        shared = count_traffic(
            small_tree, small_ulist, Variant("s", MemoryPath.SHARED, 128, 32, 1, 1)
        )
        # Shared staging shows far less visible L1/L2 traffic per pair...
        assert shared.q_cache_visible < cached.q_cache_visible / 2
        # ...because the reuse flows through shared memory instead.
        assert shared.q_shared > 0
        assert cached.q_shared == 0

    def test_texture_path_populates_texture_counter(self, small_tree, small_ulist):
        tex = count_traffic(
            small_tree, small_ulist, Variant("t", MemoryPath.TEXTURE, 128, 32, 1, 1)
        )
        assert tex.q_texture > 0
        assert tex.q_shared == 0

    def test_dram_includes_phi_traffic(self, small_tree, small_ulist):
        counters = count_traffic(small_tree, small_ulist, reference_variant())
        assert counters.q_dram >= small_tree.n_points * (POINT_BYTES + 2 * PHI_BYTES)

    def test_larger_blocks_less_dram(self, small_tree, small_ulist):
        small_blocks = Variant("a", MemoryPath.L1L2, 32, 32, 1, 1)
        large_blocks = Variant("b", MemoryPath.L1L2, 512, 32, 1, 1)
        assert (
            count_traffic(small_tree, small_ulist, large_blocks).q_dram
            < count_traffic(small_tree, small_ulist, small_blocks).q_dram
        )

    def test_intensity_dram_compute_bound(self, small_tree, small_ulist):
        """The FMM U-list's two-level intensity is well above any balance
        point — it is compute-bound, as §V-C asserts."""
        counters = count_traffic(small_tree, small_ulist, reference_variant())
        assert counters.intensity_dram > 10.0

    def test_all_variants_give_positive_counters(self, small_tree, small_ulist):
        for variant in generate_variants()[::29]:
            c = count_traffic(small_tree, small_ulist, variant)
            assert c.work > 0 and c.q_dram > 0 and c.q_cache_visible >= 0


class TestL2Refill:
    def test_clamped_range(self):
        for variant in generate_variants():
            if variant.path is MemoryPath.L1L2:
                assert 0.15 <= l2_refill_ratio(variant) <= 0.9

    def test_grows_with_footprint(self):
        small = Variant("a", MemoryPath.L1L2, 32, 8, 1, 1)
        large = Variant("b", MemoryPath.L1L2, 512, 64, 1, 1)
        assert l2_refill_ratio(large) > l2_refill_ratio(small)
