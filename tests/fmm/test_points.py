"""Point-cloud generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TreeError
from repro.fmm.points import clustered_cloud, plummer_cloud, uniform_cloud


@pytest.mark.parametrize(
    "generator",
    [uniform_cloud, clustered_cloud, plummer_cloud],
    ids=["uniform", "clustered", "plummer"],
)
class TestAllGenerators:
    def test_in_unit_cube(self, generator):
        positions, _ = generator(2000, seed=1)
        assert positions.shape == (2000, 3)
        assert np.all(positions >= 0.0)
        assert np.all(positions < 1.0)

    def test_positive_densities(self, generator):
        _, densities = generator(500, seed=2)
        assert densities.shape == (500,)
        assert np.all(densities > 0)

    def test_deterministic_given_seed(self, generator):
        a, _ = generator(100, seed=7)
        b, _ = generator(100, seed=7)
        assert np.array_equal(a, b)

    def test_seeds_differ(self, generator):
        a, _ = generator(100, seed=7)
        b, _ = generator(100, seed=8)
        assert not np.array_equal(a, b)

    def test_rejects_zero_points(self, generator):
        with pytest.raises(TreeError):
            generator(0)


class TestDistributionShapes:
    def test_uniform_fills_octants(self):
        positions, _ = uniform_cloud(8000, seed=3)
        octants = (
            (positions[:, 0] >= 0.5).astype(int)
            + 2 * (positions[:, 1] >= 0.5).astype(int)
            + 4 * (positions[:, 2] >= 0.5).astype(int)
        )
        counts = np.bincount(octants, minlength=8)
        assert counts.min() > 800  # roughly uniform occupancy

    def test_clustered_is_concentrated(self):
        positions, _ = clustered_cloud(4000, clusters=4, spread=0.02, seed=5)
        # Pairwise spread within a cluster is tiny; overall variance is
        # dominated by the cluster centres -> strongly non-uniform local
        # density.  Check via cell occupancy: most cells empty.
        cells = np.floor(positions * 8).astype(int)
        keys = cells[:, 0] * 64 + cells[:, 1] * 8 + cells[:, 2]
        occupied = np.unique(keys).size
        assert occupied < 200  # of 512 cells

    def test_plummer_central_concentration(self):
        positions, _ = plummer_cloud(4000, seed=4)
        centre = positions.mean(axis=0)
        radii = np.linalg.norm(positions - centre, axis=1)
        assert np.median(radii) < 0.25  # half the points in a small core

    def test_clustered_validation(self):
        with pytest.raises(TreeError):
            clustered_cloud(100, clusters=0)
        with pytest.raises(TreeError):
            clustered_cloud(100, spread=0.0)


def finalize_axis0(positions, rng):
    """``_finalize`` with the ``axis=0`` reductions it used to take."""
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scaled = (positions - lo) / span * (1.0 - 1e-9)
    return scaled, rng.uniform(0.5, 1.5, size=len(positions))


@pytest.mark.parametrize(
    "generator",
    [uniform_cloud, clustered_cloud, plummer_cloud],
    ids=["uniform", "clustered", "plummer"],
)
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_columnwise_bounds_match_axis0_reduction(generator, n, monkeypatch):
    """Per-column min/max give the clouds byte for byte, zero span
    (n = 1) included."""
    import repro.fmm.points as points

    got = [generator(n, seed=seed) for seed in range(32)]
    monkeypatch.setattr(points, "_finalize", finalize_axis0)
    want = [generator(n, seed=seed) for seed in range(32)]
    for (gp, gd), (wp, wd) in zip(got, want):
        assert gp.tobytes() == wp.tobytes() and gd.tobytes() == wd.tobytes()
