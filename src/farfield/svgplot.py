"""Tiny deterministic SVG line plots (no plotting stack, no timestamps).

Output bytes are a pure function of the inputs, so replotting the same data
gives identical files. Only what the reports need: line series on a log-y
axis with ticks and labels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46
_COLORS = ("#1f6f8b", "#c0541e", "#3f784c", "#7b4b94", "#9e2b25", "#2b50aa")
_N_TICKS = 6          # at most this many tick intervals per axis


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / _N_TICKS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= _N_TICKS:
            step *= mult
            break
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def svg_line_plot(path: str, xs, series: dict, title: str = "",
                  xlabel: str = "", ylabel: str = "") -> None:
    """Write a log-y line plot; series maps label -> y array over the shared
    xs. Values at or below 0 are left out of the axis range and the lines."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2 or not series:
        raise InputError("svg_line_plot: need at least 2 points and one series")
    ys_all = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    ys_all = ys_all[ys_all > 0]
    if ys_all.size == 0:
        raise InputError("svg_line_plot: log axis needs positive values")
    ylo, yhi = math.log10(ys_all.min()), math.log10(ys_all.max())
    if yhi - ylo < 1e-300:
        yhi = ylo + 1.0
    xlo, xhi = float(xs.min()), float(xs.max())

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (math.log10(y) - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>']
    # frame
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')
    if title:
        parts.append(f'<text x="{_W // 2}" y="22" text-anchor="middle" '
                     f'font-family="monospace" font-size="14">{_esc(title)}</text>')
    # x ticks
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{t:g}</text>')
    # y ticks
    yticks = _ticks(ylo, yhi)
    for t in yticks:
        y = py(10.0 ** t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">1e{t:g}</text>')
    if xlabel:
        parts.append(f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
                     f'font-family="monospace" font-size="12">{_esc(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" '
                     f'font-family="monospace" font-size="12" '
                     f'transform="rotate(-90 16 {_H // 2})">{_esc(ylabel)}</text>')
    for ci, (label, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        if ys.size != xs.size:
            raise InputError(f"series {label!r}: length {ys.size} vs x {xs.size}")
        color = _COLORS[ci % len(_COLORS)]
        pts = []
        for x, y in zip(xs, ys):
            if y <= 0:
                continue
            pts.append(f"{px(x):.2f},{py(y):.2f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * ci}" '
                     f'text-anchor="end" font-family="monospace" font-size="11" '
                     f'fill="{color}">{_esc(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
