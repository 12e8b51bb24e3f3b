"""Tiny static SVG line charts for partial-effect curves. No dependencies;
styling is deliberately minimal and not a stability surface."""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN = 50


def spaced(lo: float, hi: float, count: int) -> np.ndarray:
    """`count` evenly spaced points from lo to hi, both ends exact.

    np.linspace forms hi - lo, which overflows when the ends lie far apart
    (-1e308 and 1e308); this form never does. Its rounding can put a point
    an ulp outside [lo, hi], or below the point before it on a range a few
    ulps wide, so the points are clipped and made ascending: a range of one
    value gives that value, never a neighbour of it.
    """
    t = np.linspace(0.0, 1.0, count)
    return np.maximum.accumulate(np.clip(lo * (1.0 - t) + hi * t, lo, hi))


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return list(spaced(lo, hi, count))


def line_chart(x: np.ndarray, y: np.ndarray, title: str, xlabel: str,
               ylabel: str = "partial effect") -> str:
    """Render one polyline chart as an SVG document string."""
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(y)), float(np.max(y))

    def place(v, lo, hi, length):
        # a flat range (one row, a constant curve) sits mid-axis under its one
        # tick; widening it by 1 each way left it flat from about 1e16 up
        if hi == lo:
            return length / 2
        # divided by the power of two at the larger end, which is exact, the
        # differences can neither overflow (-1e308 to 1e308) nor round to 0
        # (subnormal ends); the ratio stays that of the unscaled differences
        scale = math.ldexp(1.0, math.frexp(max(abs(lo), abs(hi)))[1] - 1)
        return (v / scale - lo / scale) / (hi / scale - lo / scale) * length

    def sx(v):
        return MARGIN + place(v, x_lo, x_hi, WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - place(v, y_lo, y_hi, HEIGHT - 2 * MARGIN)

    points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        # axes
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{MARGIN - 5}" y1="{py:.2f}" x2="{MARGIN}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">{ylabel}</text>'
    )
    parts.append(f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{points}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
