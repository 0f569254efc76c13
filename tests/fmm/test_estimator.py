"""The §V-C estimation study."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.exceptions import MeasurementError
from repro.fmm.estimator import FmmEnergyStudy
from repro.fmm.variants import (
    MemoryPath,
    Variant,
    generate_variants,
    reference_variant,
)


@pytest.fixture(scope="module")
def study(small_tree, small_ulist) -> FmmEnergyStudy:
    return FmmEnergyStudy(small_tree, small_ulist)


@pytest.fixture(scope="module")
def small_result(study):
    """Study over a representative subset (keeps module runtime modest).

    Stride-sampled so all block sizes / tiles / unrolls are represented —
    a contiguous slice would be all-tpb-32 and unrepresentative.
    """
    variants = [v for v in generate_variants() if v.uses_only_l1l2][::7]
    variants.append(reference_variant())
    variants += [
        Variant("s1", MemoryPath.SHARED, 128, 32, 2, 1),
        Variant("t1", MemoryPath.TEXTURE, 128, 32, 2, 1),
    ]
    return study.run(list(dict.fromkeys(variants)))


class TestMeasurement:
    def test_observation_fields(self, study):
        obs = study.measure_variant(reference_variant())
        assert obs.time > 0
        assert obs.measured_energy > 0
        assert obs.naive_estimate > 0
        assert obs.corrected_estimate is None

    def test_naive_underestimates_l1l2(self, study):
        """Ignoring cache traffic must underestimate — the 33% effect."""
        obs = study.measure_variant(reference_variant())
        assert obs.naive_error < -0.15

    def test_faster_variant_less_constant_energy(self, study):
        slow = study.measure_variant(Variant("a", MemoryPath.L1L2, 32, 8, 1, 1))
        fast = study.measure_variant(Variant("b", MemoryPath.L1L2, 128, 32, 4, 1))
        assert fast.time < slow.time


class TestCacheFit:
    def test_fit_near_paper_value(self, study):
        obs = study.measure_variant(reference_variant())
        eps = study.fit_cache_cost(obs)
        assert eps * 1e12 == pytest.approx(187.0, rel=0.15)

    def test_fit_requires_l1l2_variant(self, study):
        obs = study.measure_variant(Variant("s", MemoryPath.SHARED, 128, 32, 1, 1))
        with pytest.raises(MeasurementError):
            study.fit_cache_cost(obs)


class TestStudyRun:
    def test_correction_improves_estimates(self, small_result):
        assert (
            small_result.corrected_summary.median_abs
            < abs(small_result.naive_summary.mean_signed) / 2
        )

    def test_naive_is_systematically_low(self, small_result):
        assert small_result.naive_summary.mean_signed < -0.15

    def test_corrected_median_small(self, small_result):
        assert small_result.corrected_summary.median_abs < 0.10

    def test_only_l1l2_variants_corrected(self, small_result):
        for obs in small_result.observations:
            if obs.variant.uses_only_l1l2:
                assert obs.corrected_estimate is not None
            else:
                assert obs.corrected_estimate is None

    def test_describe(self, small_result):
        text = small_result.describe()
        assert "pJ/B" in text and "variants" in text

    def test_empty_variant_list_rejected(self, study):
        with pytest.raises(MeasurementError):
            study.run([])

    def test_study_without_reference_falls_back(self, study):
        """With the canonical reference absent, any L1/L2-only variant
        anchors the fit."""
        variants = [Variant("x", MemoryPath.L1L2, 64, 16, 2, 1)]
        result = study.run(variants)
        assert result.eps_cache_fit > 0

    def test_study_without_any_l1l2_fails(self, study):
        with pytest.raises(MeasurementError, match="L1/L2"):
            study.run([Variant("s", MemoryPath.SHARED, 128, 32, 1, 1)])


class TestOneCampaign:
    """The study measures every variant in one campaign, each variant on
    its own RNG stream."""

    @pytest.fixture(scope="class")
    def variants(self):
        subset = [v for v in generate_variants()[:12]]
        if reference_variant() not in subset:
            subset.append(reference_variant())
        return subset

    def test_measurements_order_independent(self, study, variants):
        """Per-variant seeding: each observation depends only on its
        variant, not on what was measured before it."""
        forward = study.run(variants)
        backward = study.run(list(reversed(variants)))
        by_vid = {o.variant.vid: o for o in backward.observations}
        for obs in forward.observations:
            other = by_vid[obs.variant.vid]
            assert obs.measured_energy == other.measured_energy
            assert obs.time == other.time

    def test_campaign_equals_one_variant_at_a_time(self, study, variants):
        together = study.run(variants).observations
        for obs in together:
            alone = study.measure_variant(obs.variant)
            assert (alone.time, alone.measured_energy, alone.naive_estimate) == (
                obs.time, obs.measured_energy, obs.naive_estimate
            )
            assert alone.counters == obs.counters


@pytest.mark.slow
class TestFullPaperNumbers:
    def test_full_390_study_matches_paper(self):
        """The complete §V-C reproduction (also exercised by the fmm
        experiment and its benchmark)."""
        from repro.fmm.points import uniform_cloud
        from repro.fmm.tree import Octree
        from repro.fmm.ulist import build_ulist

        positions, densities = uniform_cloud(4000, seed=3)
        tree = Octree.build(positions, densities, leaf_capacity=64)
        ulist = build_ulist(tree)
        result = FmmEnergyStudy(tree, ulist).run(generate_variants())
        assert result.naive_summary.mean_signed == pytest.approx(-0.33, abs=0.06)
        assert result.eps_cache_fit * 1e12 == pytest.approx(187.0, rel=0.08)
        assert result.corrected_summary.median_abs == pytest.approx(0.041, abs=0.03)


class TestCampaignMemory:
    #: tracemalloc peak of the study at 64 000 points while it still
    #: measured one variant at a time, before the one campaign (MB).
    PRE_CAMPAIGN_PEAK_MB = 7.9

    def test_study_peak_below_the_pre_campaign_study(self):
        """The campaign keeps each variant's time and energy, not its
        readings, so measuring 390 variants at once costs less memory
        than measuring them one by one did."""
        from repro.fmm.points import uniform_cloud
        from repro.fmm.tree import Octree
        from repro.fmm.ulist import build_ulist

        positions, densities = uniform_cloud(64_000, seed=3)
        tree = Octree.build(positions, densities, leaf_capacity=64)
        ulist = build_ulist(tree)
        variants = generate_variants()
        tracemalloc.start()
        try:
            FmmEnergyStudy(tree, ulist).run(variants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PRE_CAMPAIGN_PEAK_MB * 1e6
