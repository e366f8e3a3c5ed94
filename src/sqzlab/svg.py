"""Minimal self-contained SVG line charts for frontier curves.

Hand-rolled rather than delegated to a plotting library so that output is
a single static file with no external assets and is byte-identical across
reruns and platforms. The x axis is log-scaled alpha_sq with decade
ticks; the y axis is the squeeze factor in dB.
"""

from __future__ import annotations

import math
from typing import Sequence

from .frontier import FrontierCurve

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720.0, 480.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 40.0, 56.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def frontier_svg(
    curves: Sequence[FrontierCurve],
    title: str,
    metadata: Sequence[str] = (),
) -> str:
    """Render one polyline per threshold curve; returns the SVG text."""
    xs = [p.alpha_sq for c in curves for p in c.points]
    ys = [p.squeeze_db for c in curves for p in c.points]
    if xs:
        x_lo = 10.0 ** math.floor(math.log10(min(xs)) + 1e-12)
        x_hi = 10.0 ** math.ceil(math.log10(max(xs)) - 1e-12)
        if x_lo == x_hi:
            x_hi = x_lo * 10.0
        y_lo = math.floor(min(min(ys), 0.0) / 10.0) * 10.0
        y_hi = math.ceil(max(max(ys), 10.0) / 10.0) * 10.0
    else:
        x_lo, x_hi, y_lo, y_hi = 1e-6, 1.0, 0.0, 10.0

    px_w = _WIDTH - _ML - _MR
    px_h = _HEIGHT - _MT - _MB

    log_lo, log_hi = math.log10(x_lo), math.log10(x_hi)

    def sx(x: float) -> float:
        t = (math.log10(x) - log_lo) / (log_hi - log_lo)
        return _ML + t * px_w

    def sy(y: float) -> float:
        t = (y - y_lo) / (y_hi - y_lo)
        return _MT + (1.0 - t) * px_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}" '
        f'font-family="sans-serif" font-size="12">',
    ]
    if metadata:
        lines = "\n".join(metadata)
        parts.append(f"<desc>{_escape(lines)}</desc>")
    parts.append(f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>')
    parts.append(
        f'<text x="{_fmt(_ML)}" y="24" font-size="15">{_escape(title)}</text>'
    )

    # frame
    parts.append(
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(px_w)}" '
        f'height="{_fmt(px_h)}" fill="none" stroke="#444"/>'
    )

    # x ticks at decades
    dec = math.ceil(log_lo - 1e-12)
    while dec <= log_hi + 1e-12:
        x = 10.0**dec
        parts.append(
            f'<line x1="{_fmt(sx(x))}" y1="{_fmt(_MT + px_h)}" x2="{_fmt(sx(x))}" '
            f'y2="{_fmt(_MT + px_h + 5)}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_fmt(_MT + px_h + 18)}" '
            f'text-anchor="middle">1e{dec:d}</text>'
        )
        dec += 1

    # y ticks every 10 dB
    y = y_lo
    while y <= y_hi + 1e-9:
        parts.append(
            f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(sy(y))}" x2="{_fmt(_ML)}" '
            f'y2="{_fmt(sy(y))}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(sy(y) + 4)}" '
            f'text-anchor="end">{y:g}</text>'
        )
        y += 10.0

    parts.append(
        f'<text x="{_fmt(_ML + px_w / 2)}" y="{_fmt(_HEIGHT - 12)}" '
        f'text-anchor="middle">alpha_sq (relative squared output displacement)</text>'
    )
    parts.append(
        f'<text x="18" y="{_fmt(_MT + px_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt(_MT + px_h / 2)})">squeeze factor (dB)</text>'
    )

    for k, curve in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(
            f"{_fmt(sx(p.alpha_sq))},{_fmt(sy(p.squeeze_db))}" for p in curve.points
        )
        if coords:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        label = "inf" if math.isinf(curve.threshold) else f"{curve.threshold:g}"
        ly = _MT + 16 + 16 * k
        parts.append(
            f'<line x1="{_fmt(_ML + px_w - 110)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(_ML + px_w - 88)}" y2="{_fmt(ly - 4)}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(_ML + px_w - 82)}" y="{_fmt(ly)}">U &#8804; {label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
