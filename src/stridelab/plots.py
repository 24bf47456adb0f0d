"""Standalone SVG rendering for agreement plots.

No plotting dependency: the study outputs need exactly one chart type
(Bland-Altman), and emitting the SVG by hand keeps the bytes deterministic
across platforms, which the CLI promises for everything it writes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .stats import bland_altman

__all__ = ["bland_altman_svg"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 64
_MARGIN_R = 18
_MARGIN_T = 34
_MARGIN_B = 46


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi], roughly `target` of them."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * mag >= raw),
               default=10.0) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return "%.2f" % v


def _label(v: float) -> str:
    return "%.4g" % v


def bland_altman_svg(a: Sequence[float], b: Sequence[float], *,
                     parameter: str, unit: str,
                     method_a: str, method_b: str) -> str:
    """Bland-Altman scatter of two paired measurement columns.

    One dot per pair at (mean, difference), a solid line at the mean
    difference, and dashed lines at the 95% limits of agreement.  The four
    names are written as SVG text, with &, < and > escaped.
    """
    # Imported here, so that the commands that draw no plot do not load the
    # html.entities table (about 0.2 MB of resident memory).
    from html import escape

    parameter, unit, method_a, method_b = (
        escape(text, quote=False) for text in (parameter, unit, method_a, method_b)
    )
    ba = bland_altman(a, b)
    means = (np.asarray(a, dtype=float) + np.asarray(b, dtype=float)) / 2.0
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)

    x_lo, x_hi = float(means.min()), float(means.max())
    y_lo = min(float(diffs.min()), ba.loa_lower)
    y_hi = max(float(diffs.max()), ba.loa_upper)

    def padded(lo: float, hi: float) -> tuple[float, float]:
        span = hi - lo
        if span < 1e-12:
            span = max(1e-3, abs(hi) * 0.1)
        return lo - 0.08 * span, hi + 0.08 * span

    x_lo, x_hi = padded(x_lo, x_hi)
    y_lo, y_hi = padded(y_lo, y_hi)

    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">'
        f'{parameter}: {method_a} vs {method_b}</text>',
    ]

    axis = 'stroke="#333" stroke-width="1"'
    tick_font = 'font-family="sans-serif" font-size="10" fill="#333"'
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_HEIGHT - _MARGIN_B)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(_HEIGHT - _MARGIN_B + 4)}" {axis}/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(_HEIGHT - _MARGIN_B + 16)}" '
                     f'text-anchor="middle" {tick_font}>{_label(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_fmt(_MARGIN_L - 4)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(y)}" {axis}/>')
        parts.append(f'<text x="{_fmt(_MARGIN_L - 7)}" y="{_fmt(y + 3)}" '
                     f'text-anchor="end" {tick_font}>{_label(t)}</text>')
        parts.append(f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{_fmt(y)}" '
                     'stroke="#eee" stroke-width="1"/>')

    # frame
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{inner_w}" '
                 f'height="{inner_h}" fill="none" {axis}/>')

    # bias and limits of agreement
    for value, dash, label in ((ba.bias, "", "bias"),
                               (ba.loa_lower, "6 4", "-1.96 SD"),
                               (ba.loa_upper, "6 4", "+1.96 SD")):
        y = sy(value)
        style = 'stroke="#c0392b" stroke-width="1.2"'
        if dash:
            style += f' stroke-dasharray="{dash}"'
        parts.append(f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{_fmt(y)}" {style}/>')
        parts.append(f'<text x="{_fmt(_WIDTH - _MARGIN_R - 4)}" y="{_fmt(y - 4)}" '
                     f'text-anchor="end" {tick_font}>{label} {_label(value)}</text>')

    for mx, dy in zip(means, diffs):
        parts.append(f'<circle cx="{_fmt(sx(float(mx)))}" cy="{_fmt(sy(float(dy)))}" '
                     'r="3" fill="#2c6fbb" fill-opacity="0.75"/>')

    parts.append(f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
                 f'{tick_font}>mean of methods ({unit})</text>')
    parts.append(f'<text x="14" y="{_HEIGHT // 2}" text-anchor="middle" {tick_font} '
                 f'transform="rotate(-90 14 {_HEIGHT // 2})">'
                 f'{method_a} - {method_b} ({unit})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
