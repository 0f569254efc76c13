"""Log-log ASCII charts: the paper's figures in a terminal.

Renders :class:`~repro.core.rooflines.CurveSeries` (lines),
:class:`~repro.viz.series.ScatterSeries` (dots), and vertical markers
(balance points) on a character grid with log-2 axes — the same visual
grammar as the paper's roofline/arch-line/powerline plots.

The renderer is deliberately dependency-free; it is used by the CLI
(``energy-roofline curves ...``) and by the examples, and its output is
stable enough to assert on in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.rooflines import CurveSeries
from repro.exceptions import ParameterError
from repro.viz.series import ScatterSeries

__all__ = ["AsciiChart", "render_chart"]

#: Glyphs assigned to successive curve series.
_CURVE_GLYPHS = "*#@%&+=~"
#: Glyph for scatter (measured) points.
_SCATTER_GLYPH = "o"
#: Glyph for vertical markers.
_MARKER_GLYPH = "|"


def _log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` of each element.

    numpy's vectorised ``log2`` may differ from libm's in the last bit,
    which can move a glyph across a cell boundary; placing points with
    libm keeps every chart byte-identical to one drawn point by point.
    """
    return np.fromiter(map(math.log2, values.tolist()), dtype=float, count=values.size)


@dataclass
class AsciiChart:
    """A character-grid chart with log-2 x and y axes.

    Build one, add series and markers, then :meth:`render`.
    """

    width: int = 72
    height: int = 20
    title: str = ""
    _curves: list[CurveSeries] = field(default_factory=list)
    _scatters: list[ScatterSeries] = field(default_factory=list)
    _markers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.width < 20 or self.height < 6:
            raise ParameterError("chart must be at least 20x6 characters")

    def add_curve(self, series: CurveSeries) -> "AsciiChart":
        """Add a model curve (rendered as a connected glyph line)."""
        self._curves.append(series)
        return self

    def add_scatter(self, series: ScatterSeries) -> "AsciiChart":
        """Add measured points (rendered as ``o``)."""
        self._scatters.append(series)
        return self

    def add_marker(self, label: str, intensity: float) -> "AsciiChart":
        """Add a dashed vertical line (e.g. a balance point)."""
        if intensity <= 0:
            raise ParameterError("marker intensity must be positive")
        self._markers[label] = intensity
        return self

    # ------------------------------------------------------------------

    def _bounds(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for c in self._curves:
            xs.extend(c.intensities.tolist())
            ys.extend(c.values.tolist())
        for s in self._scatters:
            xs.extend(s.intensities.tolist())
            ys.extend(s.values.tolist())
        xs.extend(self._markers.values())
        positive_ys = [y for y in ys if y > 0]
        if not xs or not positive_ys:
            raise ParameterError("chart has nothing to draw")
        return min(xs), max(xs), min(positive_ys), max(positive_ys)

    def render(self) -> str:
        """Render the chart to a multi-line string."""
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        lx_lo, lx_hi = math.log2(x_lo), math.log2(x_hi)
        ly_lo, ly_hi = math.log2(y_lo), math.log2(y_hi)
        if lx_hi - lx_lo < 1e-9:
            lx_hi = lx_lo + 1.0
        if ly_hi - ly_lo < 1e-9:
            ly_hi = ly_lo + 1.0

        grid = np.full((self.height, self.width), ord(" "), dtype=np.uint8)

        def cols(xs: np.ndarray) -> np.ndarray:
            frac = (_log2(xs) - lx_lo) / (lx_hi - lx_lo)
            return np.clip(np.rint(frac * (self.width - 1)), 0, self.width - 1).astype(np.intp)

        def rows(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Row of each positive ``y``, and the mask of those drawn."""
            drawn = ys > 0
            frac = (_log2(ys[drawn]) - ly_lo) / (ly_hi - ly_lo)
            r = np.rint((1.0 - frac) * (self.height - 1))
            return np.clip(r, 0, self.height - 1).astype(np.intp), drawn

        if self._markers:
            grid[:, cols(np.fromiter(self._markers.values(), dtype=float))] = ord(_MARKER_GLYPH)

        # Dense resample in log-x so each curve line is visually continuous.
        dense = np.exp2(np.linspace(lx_lo, lx_hi, self.width * 2))
        dense_cols = cols(dense)
        for i, curve in enumerate(self._curves):
            glyph = _CURVE_GLYPHS[i % len(_CURVE_GLYPHS)]
            inside = (curve.intensities[0] <= dense) & (dense <= curve.intensities[-1])
            r, drawn = rows(curve.at_many(dense[inside]))
            grid[r, dense_cols[inside][drawn]] = ord(glyph)

        for scatter in self._scatters:
            r, drawn = rows(scatter.values)
            grid[r, cols(scatter.intensities[drawn])] = ord(_SCATTER_GLYPH)

        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        top = f"{y_hi:.3g}"
        bottom = f"{y_lo:.3g}"
        pad = max(len(top), len(bottom))
        for r, chars in enumerate(grid):
            label = top if r == 0 else bottom if r == self.height - 1 else ""
            lines.append(f"{label:>{pad}} |{chars.tobytes().decode('ascii')}")
        lines.append(f"{'':>{pad}} +{'-' * self.width}")
        left = f"{x_lo:.3g}"
        right = f"{x_hi:.3g}"
        gap = self.width - len(left) - len(right)
        lines.append(f"{'':>{pad}}  {left}{' ' * max(1, gap)}{right}")

        legend: list[str] = []
        for i, curve in enumerate(self._curves):
            legend.append(f"{_CURVE_GLYPHS[i % len(_CURVE_GLYPHS)]} {curve.label}")
        for scatter in self._scatters:
            legend.append(f"{_SCATTER_GLYPH} {scatter.label}")
        for label, intensity in sorted(self._markers.items(), key=lambda kv: kv[1]):
            legend.append(f"{_MARKER_GLYPH} {label} = {intensity:.3g}")
        if legend:
            lines.append("  " + "   ".join(legend))
        return "\n".join(lines)


def render_chart(
    curves: Sequence[CurveSeries] = (),
    scatters: Sequence[ScatterSeries] = (),
    markers: dict[str, float] | None = None,
    *,
    title: str = "",
    width: int = 72,
    height: int = 20,
) -> str:
    """One-shot convenience wrapper over :class:`AsciiChart`."""
    chart = AsciiChart(width=width, height=height, title=title)
    for c in curves:
        chart.add_curve(c)
    for s in scatters:
        chart.add_scatter(s)
    for label, x in (markers or {}).items():
        chart.add_marker(label, x)
    return chart.render()
