"""Dependency-free SVG rendering of roofline-style charts.

The ASCII charts serve the terminal; this module produces real figures —
log-log axes, model curves as smooth polylines, measured points as
circles, balance markers as dashed verticals, a legend — as standalone
SVG documents, with no plotting library required.  Output is
deterministic, which keeps it testable and diff-friendly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from repro.core.rooflines import CurveSeries
from repro.exceptions import ParameterError
from repro.viz.series import ScatterSeries

__all__ = ["svg_chart", "write_svg"]

#: Deterministic palette for successive curves (colour-blind safe).
_COLORS = ("#0072B2", "#D55E00", "#009E73", "#CC79A7", "#56B4E9", "#E69F00")
_MARKER_COLOR = "#888888"
_POINT_COLOR = "#222222"

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 44


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Powers of two spanning [lo, hi] (at most ~12, thinned if needed)."""
    k_lo = math.ceil(math.log2(lo) - 1e-9)
    k_hi = math.floor(math.log2(hi) + 1e-9)
    ticks = [2.0**k for k in range(k_lo, k_hi + 1)]
    while len(ticks) > 12:
        ticks = ticks[::2]
    return ticks


def _fmt(value: float) -> str:
    if value >= 1 and value == int(value):
        return str(int(value))
    return f"{value:.3g}"


def svg_chart(
    curves: Sequence[CurveSeries] = (),
    scatters: Sequence[ScatterSeries] = (),
    markers: dict[str, float] | None = None,
    *,
    title: str = "",
    width: int = 640,
    height: int = 400,
    y_label: str = "",
) -> str:
    """Render a log-log chart as an SVG document string."""
    if width < 160 or height < 120:
        raise ParameterError("SVG chart must be at least 160x120")
    markers = markers or {}
    xs: list[float] = []
    ys: list[float] = []
    for c in curves:
        xs += c.intensities.tolist()
        ys += [y for y in c.values.tolist() if y > 0]
    for s in scatters:
        xs += s.intensities.tolist()
        ys += [y for y in s.values.tolist() if y > 0]
    xs += list(markers.values())
    if not xs or not ys:
        raise ParameterError("SVG chart has nothing to draw")

    lx_lo, lx_hi = math.log2(min(xs)), math.log2(max(xs))
    ly_lo, ly_hi = math.log2(min(ys)), math.log2(max(ys))
    if lx_hi - lx_lo < 1e-9:
        lx_hi = lx_lo + 1.0
    if ly_hi - ly_lo < 1e-9:
        ly_hi = ly_lo + 1.0
    # Breathe a little at the top/bottom.
    ly_lo -= 0.15
    ly_hi += 0.15

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (math.log2(x) - lx_lo) / (lx_hi - lx_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (1.0 - (math.log2(y) - ly_lo) / (ly_hi - ly_lo)) * plot_h

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="13">{escape(title)}</text>'
        )
    if y_label:
        cy = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {cy:.1f})">{escape(y_label)}</text>'
        )

    # Grid + ticks.
    for tick in _log_ticks(2.0**lx_lo, 2.0**lx_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 14}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _log_ticks(2.0**ly_lo, 2.0**ly_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{y:.1f}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{height - 8}" '
        f'text-anchor="middle">Intensity (flop:byte)</text>'
    )

    # Markers (dashed verticals).
    for label, value in sorted(markers.items(), key=lambda kv: kv[1]):
        x = px(value)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="{_MARKER_COLOR}" '
            f'stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x + 3:.1f}" y="{_MARGIN_T + 12}" fill="{_MARKER_COLOR}">'
            f"{escape(label)}={_fmt(value)}</text>"
        )

    # Curves (densely resampled in log-x for smoothness).
    for i, curve in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        lo = float(curve.intensities[0])
        hi = float(curve.intensities[-1])
        dense = np.exp2(np.linspace(math.log2(lo), math.log2(hi), 160))
        points = [
            f"{px(x):.1f},{py(y):.1f}"
            for x, y in zip(dense.tolist(), curve.at_many(dense).tolist())
            if y > 0
        ]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{" ".join(points)}"/>'
        )

    # Scatter points.
    for scatter in scatters:
        for x, y in scatter.as_rows():
            if y <= 0:
                continue
            parts.append(
                f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.2" '
                f'fill="{_POINT_COLOR}" fill-opacity="0.75"/>'
            )

    # Legend.
    legend_y = _MARGIN_T + 8
    for i, curve in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<line x1="{_MARGIN_L + 8}" y1="{legend_y:.1f}" '
            f'x2="{_MARGIN_L + 28}" y2="{legend_y:.1f}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 32}" y="{legend_y + 3:.1f}">'
            f"{escape(curve.label)}</text>"
        )
        legend_y += 14
    for scatter in scatters:
        parts.append(
            f'<circle cx="{_MARGIN_L + 18}" cy="{legend_y:.1f}" r="3.2" '
            f'fill="{_POINT_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 32}" y="{legend_y + 3:.1f}">'
            f"{escape(scatter.label)}</text>"
        )
        legend_y += 14

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(
    path: str | Path,
    curves: Sequence[CurveSeries] = (),
    scatters: Sequence[ScatterSeries] = (),
    markers: dict[str, float] | None = None,
    **kwargs,
) -> Path:
    """Render and write an SVG chart; returns the path."""
    target = Path(path)
    target.write_text(svg_chart(curves, scatters, markers, **kwargs))
    return target
