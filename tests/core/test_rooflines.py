"""CurveSeries and the curve-sampling helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rooflines import (
    CurveSeries,
    archline_series,
    capped_powerline_series,
    powerline_series,
    roofline_series,
    roofline_vs_archline,
    vertical_markers,
)
from repro.exceptions import ParameterError


class TestCurveSeries:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            CurveSeries("x", np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ParameterError):
            CurveSeries("x", np.array([1.0]), np.array([1.0]))

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ParameterError):
            CurveSeries("x", np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            CurveSeries("x", np.array([2.0, 1.0]), np.array([1.0, 2.0]))

    def test_at_interpolates_loglog(self):
        series = CurveSeries("x", np.array([1.0, 4.0]), np.array([1.0, 16.0]))
        # log-log interpolation of y = x^2.
        assert series.at(2.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_at_many_has_the_scalar_bits(self, seed):
        """Each element equals the scalar log-log formula, bit for bit."""
        rng = np.random.default_rng(seed)
        x = np.unique(np.exp2(rng.uniform(-6, 10, 200)))
        series = CurveSeries("x", x, np.exp2(rng.uniform(-8, 4, x.size)))
        queries = np.exp2(rng.uniform(-7, 11, 500))
        log_x, log_y = np.log2(series.intensities), np.log2(series.values)
        expected = [float(2.0 ** np.interp(np.log2(q), log_x, log_y)) for q in queries.tolist()]
        assert series.at_many(queries).tolist() == expected
        assert [series.at(q) for q in queries.tolist()] == expected

    def test_normalized(self):
        series = CurveSeries("x", np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        norm = series.normalized(10.0, label="n")
        assert norm.values[1] == pytest.approx(2.0)
        assert norm.label == "n"

    def test_normalized_rejects_nonpositive(self):
        series = CurveSeries("x", np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            series.normalized(0.0)

    def test_as_rows(self):
        series = CurveSeries("x", np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert series.as_rows() == [(1.0, 3.0), (2.0, 4.0)]


class TestSampling:
    def test_roofline_values_match_model(self, fermi):
        from repro.core.time_model import TimeModel

        series = roofline_series(fermi, lo=0.5, hi=64.0)
        model = TimeModel(fermi)
        for x, y in series.as_rows():
            assert y == pytest.approx(model.normalized_performance(x))

    def test_archline_values_match_model(self, gpu_double):
        from repro.core.energy_model import EnergyModel

        series = archline_series(gpu_double, lo=0.5, hi=64.0)
        model = EnergyModel(gpu_double)
        for x, y in series.as_rows():
            assert y == pytest.approx(model.normalized_efficiency(x))

    def test_powerline_absolute_units(self, gpu_double):
        series = powerline_series(gpu_double, normalized=False)
        assert series.units == "W"
        assert series.values.max() > 100.0  # watts, not fractions

    def test_absolute_roofline_peaks_at_spec(self, fermi):
        series = roofline_series(fermi, normalized=False, hi=1024.0)
        assert series.values.max() == pytest.approx(fermi.peak_gflops, rel=1e-6)

    def test_explicit_grid_respected(self, fermi):
        grid = [1.0, 2.0, 8.0]
        series = roofline_series(fermi, intensities=grid)
        assert list(series.intensities) == grid

    def test_pair_shares_grid(self, fermi):
        roof, arch = roofline_vs_archline(fermi)
        assert np.array_equal(roof.intensities, arch.intensities)

    def test_capped_powerline_clips(self, gpu_single):
        capped = capped_powerline_series(gpu_single, lo=0.5, hi=64.0)
        assert capped.values.max() <= gpu_single.power_cap + 1e-9
        uncapped = powerline_series(gpu_single, lo=0.5, hi=64.0, normalized=False)
        assert uncapped.values.max() > gpu_single.power_cap

    def test_markers(self, gpu_double):
        markers = vertical_markers(gpu_double)
        assert markers["B_tau"] == pytest.approx(gpu_double.b_tau)
        assert markers["B_eps (const=0)"] == pytest.approx(gpu_double.b_eps)
        assert markers["B_eps effective"] == pytest.approx(
            gpu_double.effective_balance_crossing
        )
