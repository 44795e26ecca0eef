"""Minimal SVG line plots (axes, polylines, band shading); no plotting deps."""

from __future__ import annotations

import math
import sys
from pathlib import Path

_WIDTH, _HEIGHT = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 50
_COLORS = ("#1f77b4", "#d62728", "#7f4f24", "#2ca02c")


def _ratio(a: float, b: float, lo: float, hi: float) -> float:
    """(a - b) / (hi - lo), from halves where either difference overflows."""
    if hi - lo < math.inf and a - b < math.inf:
        return (a - b) / (hi - lo)
    return (a / 2 - b / 2) / (hi / 2 - lo / 2)


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    # (hi - lo) / n, held at the smallest normal float so that its power of ten
    # is a float: on an axis a few subnormals wide it rounds to 0
    raw = max(_ratio(hi, lo, 0, n), sys.float_info.min)
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    # each tick a multiple k * step, clamped onto the axis and kept once: an
    # end a rounding off a multiple keeps its tick (-0.6 / 0.2 is -2.9999...),
    # and below the float spacing the clamped ticks fall together
    ks = range(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)
    return list(dict.fromkeys(min(max(k * step, lo), hi) for k in ks))


def _axis(values: list[float]) -> tuple[float, float]:
    """(min, max) of values; a one-value axis spans to value + 1, from 2^53 on to
    the next float, and at the largest float from the float below it."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
        if hi == math.inf:
            lo, hi = math.nextafter(lo, 0), lo
    return lo, hi


def line_plot(
    path: str | Path,
    x: list[float],
    series: list[tuple[str, list[float]]],
    *,
    bands: list[tuple[float, float]] | None = None,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a deterministic SVG with the given polylines and shaded bands."""
    finite = [v for _, ys in series for v in ys if math.isfinite(v)]
    if not x or not finite:
        raise ValueError("line_plot: nothing to draw")
    x_lo, x_hi = _axis(x)
    y_lo, y_hi = _axis(finite)
    # 5 % of the span on each side, where the padded axis stays in the float range
    pad = 0.05 * (y_hi - y_lo)
    if math.isfinite(y_lo - pad) and math.isfinite(y_hi + pad):
        y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + _ratio(v, x_lo, x_lo, x_hi) * pw

    def sy(v: float) -> float:
        return _MARGIN_T + _ratio(y_hi, v, y_lo, y_hi) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    for lo, hi in bands or []:
        lo_c, hi_c = max(lo, x_lo), min(hi, x_hi)
        if hi_c <= lo_c:
            continue
        parts.append(
            f'<rect x="{sx(lo_c):.2f}" y="{_MARGIN_T}" '
            f'width="{sx(hi_c) - sx(lo_c):.2f}" height="{ph}" fill="#f2d8d8"/>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{_MARGIN_T + ph}" x2="{sx(t):.2f}" '
            f'y2="{_MARGIN_T + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{_MARGIN_T + ph + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{sy(t):.2f}" x2="{_MARGIN_L}" '
            f'y2="{sy(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{sy(t) + 4:.2f}" text-anchor="end">{t:g}</text>'
        )
    for idx, (label, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            f"{sx(xv):.2f},{sy(yv):.2f}"
            for xv, yv in zip(x, ys)
            if math.isfinite(yv)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        parts.append(
            f'<text x="{_MARGIN_L + 10 + 130 * idx}" y="{_MARGIN_T - 10}" fill="{color}">{label}</text>'
        )
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="16" text-anchor="middle" font-size="14">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + pw / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + ph / 2:.0f})">{ylabel}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
