"""U-list construction: sort-join vs naive, symmetry, completeness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmm.points import clustered_cloud, plummer_cloud, uniform_cloud
from repro.fmm.tree import MAX_DEPTH, Octree
from repro.fmm.ulist import boxes_adjacent, build_ulist, build_ulist_naive


class TestAdjacency:
    def test_identical_boxes_adjacent(self):
        c = np.array([0.5, 0.5, 0.5])
        assert boxes_adjacent(c, 0.1, c, 0.1)

    def test_touching_faces_adjacent(self):
        a = np.array([0.25, 0.5, 0.5])
        b = np.array([0.75, 0.5, 0.5])
        assert boxes_adjacent(a, 0.25, b, 0.25)

    def test_touching_corners_adjacent(self):
        a = np.array([0.25, 0.25, 0.25])
        b = np.array([0.75, 0.75, 0.75])
        assert boxes_adjacent(a, 0.25, b, 0.25)

    def test_separated_not_adjacent(self):
        a = np.array([0.1, 0.5, 0.5])
        b = np.array([0.9, 0.5, 0.5])
        assert not boxes_adjacent(a, 0.1, b, 0.1)

    def test_different_sizes(self):
        big = np.array([0.25, 0.25, 0.25])
        small = np.array([0.5625, 0.0625, 0.0625])
        assert boxes_adjacent(big, 0.25, small, 0.0625)


class TestConstruction:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(20, 300),
        q=st.integers(4, 50),
        seed=st.integers(0, 50),
        dist=st.sampled_from([uniform_cloud, clustered_cloud, plummer_cloud]),
    )
    def test_hashed_matches_naive(self, n, q, seed, dist):
        """The sort-join U-list equals the O(L^2) oracle on any point
        distribution (including adaptive trees)."""
        positions, densities = dist(n, seed=seed)
        tree = Octree.build(positions, densities, leaf_capacity=q)
        assert build_ulist(tree).tolist() == build_ulist_naive(tree)

    def test_self_always_included(self, small_tree, small_ulist):
        for leaf in small_tree.leaves:
            assert leaf.index in small_ulist[leaf.index]

    def test_symmetry(self, small_tree, small_ulist):
        """S in U(B) iff B in U(S) — adjacency is symmetric."""
        for b, neighbors in enumerate(small_ulist):
            for s in neighbors:
                assert b in small_ulist[s]

    def test_entries_sorted_unique(self, small_ulist):
        for neighbors in small_ulist.tolist():
            assert neighbors == sorted(set(neighbors))

    def test_interior_leaf_of_uniform_grid_has_27_neighbors(self):
        """A regular grid of equal leaves: interior boxes see the full
        3x3x3 neighbourhood, the paper's u = 27."""
        # 4x4x4 grid of leaves: put one point at each cell centre with
        # capacity 1 so every cell becomes its own leaf.
        coords = (np.arange(4) + 0.5) / 4
        grid = np.array([[x, y, z] for x in coords for y in coords for z in coords])
        tree = Octree.build(grid, np.ones(len(grid)), leaf_capacity=1)
        ulist = build_ulist(tree)
        sizes = sorted(len(u) for u in ulist)
        assert max(sizes) == 27  # interior cells
        assert min(sizes) == 8  # corner cells

    def test_csr_rows(self, small_tree, small_ulist):
        """``len`` is the leaf count and ``ulist[i]`` leaf ``i``'s row of
        the CSR arrays, read-only; indices past either end raise."""
        rows = small_ulist.tolist()
        assert len(small_ulist) == len(rows) == small_tree.n_leaves
        assert small_ulist[-1].tolist() == rows[-1]
        assert small_ulist.neighbours.size == small_ulist.offsets[-1] == sum(map(len, rows))
        assert not small_ulist[0].flags.writeable
        with pytest.raises(IndexError):
            small_ulist[len(rows)]
        with pytest.raises(IndexError):
            small_ulist[-len(rows) - 1]

    def test_mean_ulist_size_reasonable(self, small_ulist):
        mean = np.mean([len(u) for u in small_ulist])
        assert 4.0 < mean <= 27.0


class TestEdgeCases:
    """Trees whose shape strains the integer cell ids of the join."""

    @staticmethod
    def duplicates_and_scatter(max_depth: int) -> Octree:
        """Duplicate points force one leaf down to ``max_depth`` while
        scattered points keep coarse leaves beside it."""
        scatter, _ = uniform_cloud(40, seed=1)
        # Near the far corner: the largest cell coordinates at each level.
        positions = np.vstack([np.tile([[0.97, 0.97, 0.97]], (30, 1)), scatter])
        return Octree.build(
            positions, np.ones(len(positions)), leaf_capacity=4, max_depth=max_depth
        )

    def test_duplicates_at_the_depth_limit(self):
        tree = self.duplicates_and_scatter(MAX_DEPTH)
        depths = {leaf.depth for leaf in tree.leaves}
        assert MAX_DEPTH in depths and min(depths) <= 2
        assert build_ulist(tree).tolist() == build_ulist_naive(tree)

    def test_deeper_than_the_cell_id_levels(self):
        """Leaves below level 20 join at their level-20 cell."""
        tree = self.duplicates_and_scatter(26)
        assert max(leaf.depth for leaf in tree.leaves) == 26
        assert build_ulist(tree).tolist() == build_ulist_naive(tree)

    def test_cell_ids_do_not_overflow_at_the_depth_limit(self):
        """Breadth-first ids: level 20's last cell is the last int64 id used."""
        from repro.fmm.ulist import _cell_ids

        last = np.full((1, 3), 2**MAX_DEPTH - 1, dtype=np.int64)
        ids = _cell_ids(last, np.array([MAX_DEPTH]))
        assert int(ids[0]) == (8 ** (MAX_DEPTH + 1) - 1) // 7 - 1 < 2**63

    def test_single_leaf_tree(self):
        positions, densities = uniform_cloud(10, seed=2)
        tree = Octree.build(positions, densities, leaf_capacity=64)
        assert tree.n_leaves == 1
        assert build_ulist(tree).tolist() == [[0]]

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(50, 600),
        q=st.integers(1, 12),
        clusters=st.integers(1, 4),
        spread=st.sampled_from([0.001, 0.005, 0.02]),
        seed=st.integers(0, 1000),
    )
    def test_strongly_clustered_clouds(self, n, q, clusters, spread, seed):
        positions, densities = clustered_cloud(
            n, clusters=clusters, spread=spread, seed=seed
        )
        tree = Octree.build(positions, densities, leaf_capacity=q)
        assert build_ulist(tree).tolist() == build_ulist_naive(tree)


def test_fmm_report_geometry_at_64k_points():
    """The study's 64 000-point geometry line, as the perf runs print it."""
    from repro.experiments.fmm_study import run

    text = run(n_points=64_000, max_variants=1).text
    assert "n=64000 points, 4096 leaves (capacity 64), mean |U(B)| = 23.8" in text


def test_ulist_peak_memory_at_64k_points():
    """The CSR U-list keeps the join's peak below what building 4 096
    Python lists took: 7.31 MB by tracemalloc (CPython 3.11, numpy 2.4)."""
    import tracemalloc

    positions, densities = uniform_cloud(64_000, seed=3)
    tree = Octree.build(positions, densities, leaf_capacity=64)
    tracemalloc.start()
    try:
        ulist = build_ulist(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ulist) == 4096
    assert peak < 7.31e6
