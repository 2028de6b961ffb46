"""Self-contained log-log SVG convergence plots (no plotting dependency)."""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 55
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(lo), math.ceil(hi) + 1))


def write_convergence_svg(path, series: list[dict], title: str = "") -> None:
    """Write a log-log error-vs-h plot.

    Each series dict needs ``label``, ``h`` and ``error`` lists, and may
    carry a fitted ``slope``.  Point coordinates are derived directly from
    the passed values, so the plot always matches the CSV it accompanies.
    An error that is not positive (an exact solution) has no logarithm and
    is left out; the h axis still spans every level.
    """
    pts = [(h, e) for s in series for h, e in zip(s["h"], s["error"])]
    if not pts:
        raise ValueError("nothing to plot")
    lx = [math.log10(h) for h, _ in pts]
    ly = [math.log10(e) for _, e in pts if e > 0] or [0.0]  # no error to show: any y range
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x0, x1 = x0 - 0.05 * (x1 - x0 + 1e-9) - 0.02, x1 + 0.05 * (x1 - x0 + 1e-9) + 0.02
    y0, y1 = y0 - 0.08 * (y1 - y0 + 1e-9), y1 + 0.08 * (y1 - y0 + 1e-9)

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title}</text>')
    # axes frame
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for t in _ticks(x0, x1):
        if x0 <= t <= x1:
            out.append(f'<line x1="{sx(t):.2f}" y1="{_MT}" x2="{sx(t):.2f}" '
                       f'y2="{_H - _MB}" stroke="#dddddd"/>')
            out.append(f'<text x="{sx(t):.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="12">1e{t}</text>')
    for t in _ticks(y0, y1):
        if y0 <= t <= y1:
            out.append(f'<line x1="{_ML}" y1="{sy(t):.2f}" x2="{_W - _MR}" '
                       f'y2="{sy(t):.2f}" stroke="#dddddd"/>')
            out.append(f'<text x="{_ML - 8}" y="{sy(t):.2f}" text-anchor="end" '
                       f'dominant-baseline="middle" font-family="sans-serif" '
                       f'font-size="12">1e{t}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 14}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">h</text>')
    out.append(f'<text x="18" y="{_H // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {_H // 2})">error</text>')

    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        shown = [(h, e) for h, e in zip(s["h"], s["error"]) if e > 0]
        coords = [(sx(math.log10(h)), sy(math.log10(e))) for h, e in shown]
        path_d = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for (x, y), (h, e) in zip(coords, shown):
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}">'
                       f'<title>h={h!r} error={e!r}</title></circle>')
        label = s["label"]
        if s.get("slope") is not None:
            label += f" (slope {s['slope']:.2f})"
        ly_pos = _MT + 18 + 18 * i
        out.append(f'<line x1="{_W - _MR + 10}" y1="{ly_pos - 4}" '
                   f'x2="{_W - _MR + 34}" y2="{ly_pos - 4}" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR + 40}" y="{ly_pos}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")
