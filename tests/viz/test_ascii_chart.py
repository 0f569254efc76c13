"""ASCII chart rendering."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.rooflines import CurveSeries, roofline_vs_archline
from repro.exceptions import ParameterError
from repro.machines.catalog import keckler_fermi
from repro.viz.ascii_chart import AsciiChart, render_chart
from repro.viz.series import ScatterSeries


@pytest.fixture
def fermi_curves():
    return roofline_vs_archline(keckler_fermi())


class TestRendering:
    def test_contains_curve_glyphs_and_legend(self, fermi_curves):
        roof, arch = fermi_curves
        out = render_chart([roof, arch], title="test-title")
        assert "test-title" in out
        assert "*" in out and "#" in out
        assert roof.label in out and arch.label in out

    def test_markers_drawn_as_vertical_lines(self, fermi_curves):
        roof, _ = fermi_curves
        out = render_chart([roof], markers={"B_tau": 3.576})
        assert "|" in out
        assert "B_tau = 3.58" in out

    def test_scatter_points(self, fermi_curves):
        roof, _ = fermi_curves
        pts = ScatterSeries("dots", np.array([1.0, 8.0]), np.array([0.3, 1.0]))
        out = render_chart([roof], [pts])
        assert "o" in out
        assert "dots" in out

    def test_axis_labels_show_bounds(self, fermi_curves):
        roof, _ = fermi_curves
        out = render_chart([roof])
        assert "0.5" in out and "512" in out

    def test_dimensions(self, fermi_curves):
        roof, _ = fermi_curves
        chart = AsciiChart(width=40, height=10).add_curve(roof)
        lines = chart.render().splitlines()
        # height rows + axis + labels + legend
        assert len(lines) >= 12
        grid_rows = [l for l in lines if l.strip().endswith(tuple("*| "))]
        assert all(len(l) <= 50 for l in grid_rows)

    def test_roofline_shape_visible(self, fermi_curves):
        """The top row should be flat (the roof); the left column low."""
        roof, _ = fermi_curves
        out = render_chart([roof], width=60, height=12)
        rows = [l for l in out.splitlines() if "|" in l][:12]
        top = rows[0]
        assert top.count("*") > 10  # flat roof spans many columns


class TestValidation:
    def test_empty_chart_rejected(self):
        with pytest.raises(ParameterError, match="nothing"):
            AsciiChart().render()

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            AsciiChart(width=5, height=2)

    def test_bad_marker_rejected(self):
        with pytest.raises(ParameterError):
            AsciiChart().add_marker("x", 0.0)

    def test_chainable_builders(self, fermi_curves):
        roof, arch = fermi_curves
        chart = AsciiChart().add_curve(roof).add_curve(arch).add_marker("b", 3.6)
        assert isinstance(chart.render(), str)


def _reference_grid(chart: AsciiChart) -> list[str]:
    """The chart's grid drawn point by point: the oracle for ``render``."""
    x_lo, x_hi, y_lo, y_hi = chart._bounds()
    lx_lo, lx_hi = math.log2(x_lo), math.log2(x_hi)
    ly_lo, ly_hi = math.log2(y_lo), math.log2(y_hi)
    if lx_hi - lx_lo < 1e-9:
        lx_hi = lx_lo + 1.0
    if ly_hi - ly_lo < 1e-9:
        ly_hi = ly_lo + 1.0
    width, height = chart.width, chart.height
    grid = [[" "] * width for _ in range(height)]

    def col(x):
        frac = (math.log2(x) - lx_lo) / (lx_hi - lx_lo)
        return min(width - 1, max(0, int(round(frac * (width - 1)))))

    def row(y):
        if y <= 0:
            return None
        frac = (math.log2(y) - ly_lo) / (ly_hi - ly_lo)
        return min(height - 1, max(0, int(round((1.0 - frac) * (height - 1)))))

    for intensity in chart._markers.values():
        for r in range(height):
            grid[r][col(intensity)] = "|"
    for i, curve in enumerate(chart._curves):
        glyph = "*#@%&+=~"[i % 8]
        log_x, log_y = np.log2(curve.intensities), np.log2(curve.values)
        for x in np.exp2(np.linspace(lx_lo, lx_hi, width * 2)):
            if curve.intensities[0] <= x <= curve.intensities[-1]:
                r = row(float(2.0 ** np.interp(np.log2(float(x)), log_x, log_y)))
                if r is not None:
                    grid[r][col(float(x))] = glyph
    for scatter in chart._scatters:
        for x, y in scatter.as_rows():
            r = row(y)
            if r is not None:
                grid[r][col(x)] = "o"
    return ["".join(chars) for chars in grid]


class TestMatchesPointByPointRendering:
    """The array renderer places every glyph where a per-point loop does."""

    @staticmethod
    def grid_of(chart: AsciiChart) -> list[str]:
        lines = chart.render().splitlines()[: chart.height]
        return [line[line.index(" |") + 2 :] for line in lines]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_charts(self, seed):
        rng = np.random.default_rng(seed)
        chart = AsciiChart(width=int(rng.integers(20, 100)), height=int(rng.integers(6, 30)))
        for _ in range(int(rng.integers(0, 4))):
            x = np.unique(np.exp2(rng.uniform(-6, 10, int(rng.integers(2, 300)))))
            if x.size < 2:
                continue
            y = np.exp2(rng.uniform(-8, 4, x.size))
            chart.add_curve(CurveSeries("curve", x, y))
        for _ in range(int(rng.integers(1, 3))):
            n = int(rng.integers(1, 700))
            y = np.exp2(rng.uniform(-8, 4, n))
            y[rng.random(n) < 0.05] = 0.0
            y[rng.random(n) < 0.05] *= -1.0
            chart.add_scatter(ScatterSeries("dots", np.exp2(rng.uniform(-6, 10, n)), y))
        for k in range(int(rng.integers(0, 4))):
            chart.add_marker(f"m{k}", float(np.exp2(rng.uniform(-6, 10))))
        assert self.grid_of(chart) == _reference_grid(chart)

    def test_fermi_curves_with_markers(self, fermi_curves):
        roof, arch = fermi_curves
        chart = AsciiChart().add_curve(roof).add_curve(arch).add_marker("b", 3.6)
        assert self.grid_of(chart) == _reference_grid(chart)
