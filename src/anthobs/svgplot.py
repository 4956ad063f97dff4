"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: byte-for-byte reproducible output with one
``<polyline class="series">`` element per data series, so artifact tests can
count series and re-renders never differ across runs on one platform.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from .fileio import write_atomic

__all__ = ["line_plot"]

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 50, 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _range(values: list[float]) -> tuple[float, float]:
    """``(min, max)`` of ``values``; one value ``lo`` spans to ``lo + 1``, or to
    the next float above where ``lo + 1`` rounds back to ``lo``, or from the
    next float below where no float lies above."""
    lo, hi = min(values), max(values)
    if hi != lo:
        return lo, hi
    hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    return (lo, hi) if hi < math.inf else (math.nextafter(lo, -math.inf), lo)


def _axis(values: list[float], pad: float) -> tuple[float, float, float]:
    """The :func:`_range` of ``values`` widened by ``pad`` of its span at each
    end, held in units of a ``scale``: 1, or a power of 2 below it where the
    span would overflow (such scaling is exact for normal floats).  Returns
    ``(lo, hi, scale)``, the ends in scaled units."""
    lo, hi = _range(values)
    for scale in (1.0, 0.5, 0.25):
        margin = pad * (hi * scale - lo * scale)
        a, b = lo * scale - margin, hi * scale + margin
        if math.isfinite(b - a):
            break
    return a, b, scale


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    if span / n < sys.float_info.min:  # no decade to step by: the ends alone
        return [lo, hi]
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 2.5, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    # 12 decimals, or a step's own decimals where 12 would merge its ticks
    digits = 12 if step >= 1e-9 else 1 - math.floor(math.log10(step))
    out = []
    x = first
    while x <= hi + 1e-12 * span:
        out.append(round(x, digits))
        if x + step == x:  # a step below the float spacing of x
            break
        x += step
    return out


def _labels(ticks: list[float]) -> list[str]:
    """Labels of an axis's ``ticks`` in the fewest significant digits, from 6
    up to 17, that keep distinct ticks apart."""
    for digits in range(6, 18):
        labels = [f"{x:.{digits}g}" for x in ticks]
        if len(set(labels)) == len(set(ticks)):
            return labels
    return labels


def line_plot(path: str | Path, x, series: list[tuple[str, object]],
              title: str, xlabel: str, ylabel: str) -> None:
    """Write a line plot of ``series = [(label, ys), ...]`` against ``x``."""
    x = np.asarray(x, dtype=float)
    if not len(x) or not series:
        raise ValueError("line_plot needs a nonempty x axis and at least one series")
    ys_each = [np.asarray(ys, dtype=float) for _, ys in series]
    # the range of Python floats, as min() and max() order them
    xs, ys_all = x.tolist(), np.concatenate(ys_each).tolist()
    (x_lo, x_hi, x_scale), (y_lo, y_hi, y_scale) = _axis(xs, 0.0), _axis(ys_all, 0.05)

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    # on a float or elementwise on an array, in the same IEEE operations, of
    # values in the scaled units of the axis
    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    axis_style = 'stroke="#333333" stroke-width="1"'
    out.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T + ph}" x2="{MARGIN_L + pw}" '
               f'y2="{MARGIN_T + ph}" {axis_style}/>')
    out.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
               f'y2="{MARGIN_T + ph}" {axis_style}/>')
    x_ticks, y_ticks = _ticks(x_lo, x_hi), _ticks(y_lo, y_hi)
    for tx, label in zip(x_ticks, _labels([tx / x_scale for tx in x_ticks])):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + ph}" x2="{px:.2f}" '
                   f'y2="{MARGIN_T + ph + 5}" {axis_style}/>')
        out.append(f'<text x="{px:.2f}" y="{MARGIN_T + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    for ty, label in zip(y_ticks, _labels([ty / y_scale for ty in y_ticks])):
        py = sy(ty)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
                   f'y2="{py:.2f}" {axis_style}/>')
        out.append(f'<text x="{MARGIN_L - 9}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    out.append(f'<text x="{MARGIN_L + pw / 2:.1f}" y="{HEIGHT - 12}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="20" y="{MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {MARGIN_T + ph / 2:.1f})">{ylabel}</text>')

    px_all = sx(x * x_scale)
    for i, ((label, _), ys) in enumerate(zip(series, ys_each)):
        color = PALETTE[i % len(PALETTE)]
        n = min(len(x), len(ys))  # as zip pairs them
        xy = np.column_stack([px_all[:n], sy(ys[:n] * y_scale)])
        # one % format per series: the text of f"{v:.2f}" for every coordinate
        pts = " ".join(["%.2f,%.2f"] * n) % tuple(xy.ravel().tolist())
        out.append(f'<polyline class="series" fill="none" stroke="{color}" '
                   f'stroke-width="1.5" points="{pts}"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + pw + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    write_atomic(path, "\n".join(out) + "\n")
