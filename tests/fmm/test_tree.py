"""Octree construction and invariants."""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import TreeError
from repro.fmm.points import clustered_cloud, plummer_cloud, uniform_cloud
from repro.fmm.tree import MAX_DEPTH, Leaf, Octree
from tests.fmm.recursive_octree import recursive_octree


def build(n=300, q=20, seed=0, generator=uniform_cloud) -> Octree:
    positions, densities = generator(n, seed=seed)
    return Octree.build(positions, densities, leaf_capacity=q)


class TestConstruction:
    def test_all_points_in_exactly_one_leaf(self):
        tree = build()
        indices = np.concatenate([leaf.points for leaf in tree.leaves])
        assert np.array_equal(np.sort(indices), np.arange(tree.n_points))

    def test_capacity_respected(self):
        tree = build(n=1000, q=16)
        assert tree.leaf_sizes().max() <= 16

    def test_validate_passes(self):
        build(n=500, q=32).validate()

    def test_single_point_tree(self):
        positions = np.array([[0.5, 0.5, 0.5]]) * 0.99
        tree = Octree.build(positions, np.array([1.0]), leaf_capacity=8)
        assert tree.n_leaves == 1
        assert tree.leaves[0].size == 1

    def test_all_points_fit_in_root(self):
        positions, densities = uniform_cloud(50, seed=1)
        tree = Octree.build(positions, densities, leaf_capacity=100)
        assert tree.n_leaves == 1
        assert tree.leaves[0].depth == 0

    def test_duplicate_points_stop_at_max_depth(self):
        positions = np.tile(np.array([[0.3, 0.3, 0.3]]), (20, 1))
        tree = Octree.build(
            positions, np.ones(20), leaf_capacity=4, max_depth=6
        )
        assert tree.n_leaves == 1
        assert tree.leaves[0].size == 20
        assert tree.leaves[0].depth == 6

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 400),
        q=st.integers(1, 64),
        seed=st.integers(0, 100),
    )
    def test_partition_property(self, n, q, seed):
        """For any cloud and capacity: leaves partition the point set and
        respect capacity (above the depth limit)."""
        positions, densities = uniform_cloud(n, seed=seed)
        tree = Octree.build(positions, densities, leaf_capacity=q)
        tree.validate()

    def test_adaptive_tree_has_mixed_depths(self):
        tree = build(n=3000, q=16, generator=clustered_cloud)
        depths = {leaf.depth for leaf in tree.leaves}
        assert len(depths) > 1  # clusters force deeper subdivision locally


def leaf_table(leaves) -> dict[str, np.ndarray]:
    """The leaf table listing ``leaves`` in order."""
    return {
        "leaf_offsets": np.append(0, np.cumsum([leaf.size for leaf in leaves])),
        "leaf_points": np.concatenate([leaf.points for leaf in leaves]),
        "leaf_centers": np.array([leaf.center for leaf in leaves]),
        "leaf_halves": np.array([leaf.half_width for leaf in leaves]),
        "leaf_depths": np.array([leaf.depth for leaf in leaves]),
    }


def node_table(nodes) -> dict[str, np.ndarray]:
    """The node table listing ``nodes`` in order."""
    parents = np.zeros(len(nodes), dtype=np.int64)
    for node in nodes:
        parents[list(node.children)] = node.index
    return {
        "node_centers": np.array([node.center for node in nodes]),
        "node_halves": np.array([node.half_width for node in nodes]),
        "node_depths": np.array([node.depth for node in nodes]),
        "node_parents": parents,
        "node_leaves": np.array(
            [-1 if node.leaf_index is None else node.leaf_index for node in nodes]
        ),
    }


def assert_same_tree(got: Octree, want) -> None:
    """Every field of every leaf and node equal, Python types included,
    and the tables equal, dtypes included, to the ones listing them."""
    assert got.max_depth == want.max_depth
    assert len(got.leaves) == len(want.leaves) == got.n_leaves
    assert len(got.nodes) == len(want.nodes)
    for g, w in zip(got.leaves, want.leaves):
        assert (g.index, g.half_width, g.depth) == (w.index, w.half_width, w.depth)
        assert type(g.index) is type(g.depth) is int and type(g.half_width) is float
        np.testing.assert_array_equal(g.center, w.center, strict=True)
        np.testing.assert_array_equal(g.points, w.points, strict=True)
    for g, w in zip(got.nodes, want.nodes):
        assert (g.index, g.half_width, g.depth, g.children, g.leaf_index) == (
            w.index, w.half_width, w.depth, w.children, w.leaf_index
        )
        assert all(type(c) is int for c in g.children)
        np.testing.assert_array_equal(g.center, w.center, strict=True)
    for name, table in {**leaf_table(want.leaves), **node_table(want.nodes)}.items():
        np.testing.assert_array_equal(getattr(got, name), table, strict=True, err_msg=name)


CLOUDS = {
    "uniform": uniform_cloud,
    "clustered": clustered_cloud,
    "plummer": plummer_cloud,
}


class TestMatchesRecursiveBuild:
    """The array build yields the recursive build's tree, field for field:
    the same boxes, nodes in its preorder, leaves in its depth-first
    order, each leaf's points as ascending indices."""

    @settings(max_examples=60, deadline=None)
    @given(
        cloud=st.sampled_from(sorted(CLOUDS)),
        n=st.integers(1, 600),
        q=st.integers(1, 128),
        seed=st.integers(0, 1000),
        max_depth=st.sampled_from([0, 1, 2, 4, MAX_DEPTH, 21, 22, 33, 45]),
        copies=st.integers(0, 40),
        spacing=st.integers(15, 50),
    )
    @example(cloud="uniform", n=1, q=1, seed=0, max_depth=MAX_DEPTH, copies=0, spacing=20)
    # The fmm experiment's geometry.
    @example(cloud="uniform", n=4000, q=64, seed=3, max_depth=MAX_DEPTH, copies=0, spacing=20)
    @example(cloud="plummer", n=300, q=1, seed=1, max_depth=0, copies=5, spacing=20)
    @example(cloud="clustered", n=300, q=2, seed=2, max_depth=1, copies=5, spacing=20)
    @example(cloud="uniform", n=200, q=3, seed=3, max_depth=40, copies=12, spacing=30)
    def test_fields_equal_the_recursion(
        self, cloud, n, q, seed, max_depth, copies, spacing
    ):
        """``copies`` extra points pile onto one point of the cloud, every
        other one nudged by ``2**-spacing`` per axis: duplicates that
        reach the depth limit, and near-duplicates that part below the
        first 21 levels."""
        positions, densities = CLOUDS[cloud](n, seed=seed)
        nudge = np.ldexp(np.arange(copies) % 2, -spacing)[:, None]
        extra = np.minimum(positions[0] + nudge, np.nextafter(1.0, 0.0))
        positions = np.vstack([positions, extra])
        densities = np.concatenate([densities, np.ones(copies)])
        got = Octree.build(positions, densities, leaf_capacity=q, max_depth=max_depth)
        want = recursive_octree(positions, leaf_capacity=q, max_depth=max_depth)
        assert_same_tree(got, want)
        got.validate()

    def test_validate_honours_the_tree_depth_limit(self):
        """An over-full leaf at the tree's own depth limit is valid."""
        positions = np.tile(np.array([[0.3, 0.3, 0.3]]), (20, 1))
        for max_depth in (0, 1, 6):
            tree = Octree.build(positions, np.ones(20), leaf_capacity=4, max_depth=max_depth)
            tree.validate()


class TestLeafGeometry:
    def test_points_inside_boxes(self):
        tree = build(n=800, q=25, seed=3)
        for leaf in tree.leaves:
            pts = tree.positions[leaf.points]
            assert np.all(pts >= leaf.center - leaf.half_width - 1e-12)
            assert np.all(pts <= leaf.center + leaf.half_width + 1e-12)

    def test_halfwidth_halves_per_level(self):
        tree = build(n=2000, q=10)
        for leaf in tree.leaves:
            assert leaf.half_width == pytest.approx(0.5 / 2**leaf.depth)

    def test_leaf_indices_sequential(self):
        tree = build()
        assert [leaf.index for leaf in tree.leaves] == list(range(tree.n_leaves))


class TestValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(TreeError):
            Octree.build(np.zeros((5, 2)), np.ones(5), leaf_capacity=4)

    def test_rejects_density_mismatch(self):
        with pytest.raises(TreeError):
            Octree.build(np.zeros((5, 3)), np.ones(4), leaf_capacity=4)

    def test_rejects_empty(self):
        with pytest.raises(TreeError):
            Octree.build(np.zeros((0, 3)), np.zeros(0), leaf_capacity=4)

    def test_rejects_out_of_cube(self):
        positions = np.array([[1.5, 0.5, 0.5]])
        with pytest.raises(TreeError):
            Octree.build(positions, np.ones(1), leaf_capacity=4)

    def test_rejects_zero_capacity(self):
        positions, densities = uniform_cloud(10, seed=0)
        with pytest.raises(TreeError):
            Octree.build(positions, densities, leaf_capacity=0)


def corrupted(tree: Octree, *, leaves=None, **changes) -> Octree:
    """A raw tree over the same points with some fields replaced;
    ``leaves`` replaces the whole leaf table by the one listing them."""
    fields = {f.name: getattr(tree, f.name) for f in dataclasses.fields(tree)}
    if leaves is not None:
        fields.update(leaf_table(leaves))
    fields.update(changes)
    return Octree(**fields)


class TestValidateCatchesCorruption:
    """``validate`` checks every point against its own leaf's box in one
    pass; each broken invariant still raises, naming the first
    offending leaf."""

    def test_overflow_names_first_overfull_leaf(self):
        tree = build(n=600, q=20)
        cap = int(np.median(tree.leaf_sizes()))
        first = next(l for l in tree.leaves if l.size > cap)
        with pytest.raises(TreeError, match=rf"leaf {first.index} overflows capacity "
                           rf"\({first.size} > {cap}\)"):
            corrupted(tree, leaf_capacity=cap).validate()

    def test_overflow_allowed_at_the_depth_limit(self):
        tree = build(n=600, q=20)
        leaves = [replace(l, depth=MAX_DEPTH) for l in tree.leaves]
        # Out-of-box is judged by the stored box, not the depth: valid.
        corrupted(tree, leaf_capacity=1, leaves=leaves).validate()

    def test_out_of_box_point_names_first_leaf_holding_one(self):
        tree = build(n=600, q=20)
        leaves = list(tree.leaves)
        a, b = 2, len(leaves) - 1  # far apart in a uniform cloud
        pa, pb = leaves[a].points.copy(), leaves[b].points.copy()
        pa[0], pb[0] = pb[0], pa[0]
        leaves[a] = replace(leaves[a], points=np.sort(pa))
        leaves[b] = replace(leaves[b], points=np.sort(pb))
        with pytest.raises(TreeError, match=rf"leaf {a} contains out-of-box points"):
            corrupted(tree, leaves=leaves).validate()

    def test_overflow_reported_before_out_of_box_in_one_leaf(self):
        tree = build(n=600, q=20)
        leaves = list(tree.leaves)
        stray = leaves[-1].points[:1]
        leaves[0] = replace(leaves[0], points=np.concatenate([leaves[0].points, stray]))
        leaves[-1] = replace(leaves[-1], points=leaves[-1].points[1:])
        with pytest.raises(TreeError, match="leaf 0 overflows capacity"):
            corrupted(tree, leaves=leaves, leaf_capacity=leaves[0].size - 1).validate()
        with pytest.raises(TreeError, match="leaf 0 contains out-of-box points"):
            corrupted(tree, leaves=leaves, leaf_capacity=leaves[0].size).validate()

    def test_missing_point(self):
        tree = build(n=300, q=20)
        leaves = list(tree.leaves)
        leaves[1] = replace(leaves[1], points=leaves[1].points[1:])
        with pytest.raises(TreeError, match="leaves cover 299 of 300 points"):
            corrupted(tree, leaves=leaves).validate()

    def test_duplicated_point(self):
        tree = build(n=300, q=20)
        leaves = list(tree.leaves)
        twice = np.concatenate([leaves[1].points, leaves[1].points[:1]])
        leaves[1] = replace(leaves[1], points=twice)
        with pytest.raises(TreeError, match="leaves cover 300 of 300 points"):
            corrupted(tree, leaves=leaves).validate()
        # A duplicate standing in for a missing point.
        swapped = leaves[1].points.copy()
        swapped[1] = swapped[0]
        leaves[1] = replace(leaves[1], points=swapped)
        with pytest.raises(TreeError, match="leaves cover 299 of 300 points"):
            corrupted(tree, leaves=leaves).validate()

    def test_point_index_out_of_range(self):
        tree = build(n=300, q=20)
        leaves = list(tree.leaves)
        bogus = leaves[1].points.copy()
        bogus[-1] = 300
        leaves[1] = replace(leaves[1], points=bogus)
        with pytest.raises(TreeError, match="leaves cover 299 of 300 points"):
            corrupted(tree, leaves=leaves).validate()


class TestTables:
    """The arrays are the tree; the objects are made from them on demand."""

    def test_tables_are_read_only_and_objects_cached(self):
        tree = build(n=500, q=16, generator=plummer_cloud)
        for name in ("leaf_offsets", "leaf_points", "leaf_centers", "node_parents"):
            assert not getattr(tree, name).flags.writeable
        assert tree.leaves is tree.leaves and tree.nodes is tree.nodes
        assert tree.n_leaves == len(tree.leaves)
        np.testing.assert_array_equal(
            tree.leaf_sizes(), [leaf.size for leaf in tree.leaves], strict=True
        )

    def test_fmm_experiment_makes_no_leaf_or_node_objects(self, monkeypatch):
        """The §V-C pipeline (build, validate, U-lists, pair count, the
        390-variant study and its report) reads the tables only."""
        import repro.fmm.tree as tree_module
        from repro.experiments.fmm_study import run

        def refuse(*args, **kwargs):
            raise AssertionError("a Leaf or Node object was made")

        monkeypatch.setattr(tree_module, "Leaf", refuse)
        monkeypatch.setattr(tree_module, "Node", refuse)
        result = run(n_points=4000)
        assert "n=4000 points" in result.text
        with pytest.raises(AssertionError, match="object was made"):
            build().leaves
