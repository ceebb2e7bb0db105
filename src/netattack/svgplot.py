"""Line charts as standalone SVG files, no plotting dependency.

Deliberately minimal: axes, ticks, a legend, one polyline per series.
The CSV tables are the primary output; these files exist so a run can
be eyeballed without further tooling.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_WIDTH = 720
_HEIGHT = 460
_X_LABEL = "f"

Curve = tuple[str, Sequence[tuple[float, float]]]


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 12))
        t += step
    return ticks


def render_line_chart(series: Sequence[Curve], y_label: str) -> str:
    """Render labelled (f, value) curves, labels escaped, to an SVG document string."""
    pts = [p for _, points in series for p in points]
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    width, height = _WIDTH, _HEIGHT
    left, right, top, bottom = 62, 16, 34, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    out.append(
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{y_label} vs fraction removed</text>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        if t < x_lo or t > x_hi:
            continue
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
                   f'y2="{top + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.2f}" y="{top + plot_h + 18}" '
                   f'text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if t < y_lo or t > y_hi:
            continue
        y = sy(t)
        out.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" '
                   f'y2="{y:.2f}" stroke="#333"/>')
        out.append(f'<text x="{left - 8}" y="{y + 4:.2f}" '
                   f'text-anchor="end">{t:g}</text>')
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" '
        f'text-anchor="middle">{_X_LABEL}</text>'
    )
    y_mid = top + plot_h / 2
    out.append(
        f'<text x="16" y="{y_mid:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {y_mid:.1f})">{y_label}</text>'
    )
    for i, (label, points) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = top + 14 + 16 * i
        lx = left + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{lx + 28}" y="{ly}">{text}</text>')
    out.append("</svg>")
    return "\n".join(out)


def write_chart(path: str | Path, curves: Iterable[Curve], y_label: str) -> bool:
    """Chart labelled (f, value) curves at ``path``, dropping empty ones.

    Returns whether anything was drawn; nothing is written otherwise.
    """
    series = [(label, points) for label, points in curves if points]
    if series:
        Path(path).write_text(render_line_chart(series, y_label), encoding="utf-8")
    return bool(series)
