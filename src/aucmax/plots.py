"""Deterministic SVG rendering: metric curves and 2-D decision-boundary panels.

No plotting library: output bytes must be identical across runs and machines,
so everything is formatted explicitly. Numeric series are embedded in XML
comments so plots stay machine-readable.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["line_plot", "scatter_boundary_panels"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _bounds(values):
    lo = float(min(values))
    hi = float(max(values))
    pad = max((hi - lo) * 0.05, 1e-6, abs(hi) * 1e-3 + 1e-6)
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def comment(self, text: str):
        self.parts.append(f"<!-- {text} -->")

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def polyline(self, pts, color):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def circle(self, x, y, r, color, fill=True):
        style = f'fill="{color}"' if fill else f'fill="none" stroke="{color}" stroke-width="1"'
        self.parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" {style}/>')

    def text(self, x, y, s, size=11, color="#000000", anchor="start"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace" fill="{color}" text-anchor="{anchor}">{s}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_plot(series: list[tuple[str, list, list]], xlabel: str, ylabel: str,
              title: str = "") -> str:
    """Render labeled (x, y) series as one SVG line chart.

    Axis bounds are padded so every data point lies strictly inside them and
    are recorded, with the raw series, in comments.
    """
    if not series:
        raise ValidationError("nothing to plot")
    for label, xs, ys in series:
        if len(xs) == 0 or len(xs) != len(ys):
            raise ValidationError(f"series {label!r} is empty or ragged")

    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    all_x = [float(v) for _, xs, _ in series for v in xs]
    all_y = [float(v) for _, _, ys in series for v in ys]
    x0, x1 = _bounds(all_x)
    y0, y1 = _bounds(all_y)

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    cv = _Canvas(width, height)
    cv.comment(f"axes: {_fmt(x0)} {_fmt(x1)} {_fmt(y0)} {_fmt(y1)}")
    for label, xs, ys in series:
        data = "; ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        cv.comment(f"data {label}: {data}")

    # frame and ticks
    cv.line(ml, mt, ml, height - mb)
    cv.line(ml, height - mb, width - mr, height - mb)
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
        cv.line(px(fx), height - mb, px(fx), height - mb + 4)
        cv.text(px(fx), height - mb + 16, _fmt(fx), size=9, anchor="middle")
        cv.line(ml - 4, py(fy), ml, py(fy))
        cv.text(ml - 6, py(fy) + 3, _fmt(fy), size=9, anchor="end")
    cv.text((ml + width - mr) / 2, height - 12, xlabel, anchor="middle")
    cv.text(14, (mt + height - mb) / 2, ylabel, anchor="middle")
    if title:
        cv.text(width / 2, 20, title, size=13, anchor="middle")

    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        cv.polyline([(px(float(x)), py(float(y))) for x, y in zip(xs, ys)], color)
        cv.text(width - mr - 6, mt + 14 + 14 * k, label, size=10, color=color, anchor="end")
    return cv.render()


# --- decision-boundary panels -------------------------------------------------


def _zero_crossing(f, p_lo, p_hi, v_lo, v_hi, tol):
    """Bisect along the segment [p_lo, p_hi] to a point with |f| < tol."""
    p_lo, p_hi = np.asarray(p_lo, float), np.asarray(p_hi, float)
    if abs(v_lo) < tol:
        return p_lo
    if abs(v_hi) < tol:
        return p_hi
    for _ in range(80):
        mid = 0.5 * (p_lo + p_hi)
        v_mid = f(mid)
        if abs(v_mid) < tol:
            return mid
        if (v_mid < 0) == (v_lo < 0):
            p_lo, v_lo = mid, v_mid
        else:
            p_hi, v_hi = mid, v_mid
    return 0.5 * (p_lo + p_hi)


def zero_contour_segments(score_fn, xlim, ylim, resolution=48, tol=1e-4):
    """Marching-squares segments of the score function's zero level set.

    Every returned vertex satisfies |score| < tol (bisection-refined).
    """
    xs = np.linspace(xlim[0], xlim[1], resolution)
    ys = np.linspace(ylim[0], ylim[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = score_fn(pts).reshape(resolution, resolution)

    def f(p):
        return float(score_fn(p[None, :])[0])

    segments = []
    for j in range(resolution - 1):
        for i in range(resolution - 1):
            corners = [
                ((xs[i], ys[j]), vals[j, i]),
                ((xs[i + 1], ys[j]), vals[j, i + 1]),
                ((xs[i + 1], ys[j + 1]), vals[j + 1, i + 1]),
                ((xs[i], ys[j + 1]), vals[j + 1, i]),
            ]
            crossings = []
            for k in range(4):
                (p1, v1), (p2, v2) = corners[k], corners[(k + 1) % 4]
                if (v1 < 0) != (v2 < 0):
                    crossings.append(_zero_crossing(f, p1, p2, v1, v2, tol))
            # connect crossing points pairwise; ambiguous 4-crossing cells
            # are rare at this resolution and pairing 0-1 / 2-3 is adequate
            for k in range(0, len(crossings) - 1, 2):
                segments.append((crossings[k], crossings[k + 1]))
    return segments


def scatter_boundary_panels(panels, xlim, ylim) -> str:
    """Grid of scatter+boundary panels.

    ``panels`` is a list of rows; each entry is a dict with keys
    ``title``, ``X`` (n x 2), ``y`` (+1/-1), ``noisy_mask`` (bool per sample),
    ``score_fn`` (maps (n, 2) -> scores), ``annotation`` (str).
    """
    n_rows = len(panels)
    n_cols = max(len(row) for row in panels)
    panel_size, margin, header = 240, 14, 30
    width = n_cols * (panel_size + margin) + margin
    height = n_rows * (panel_size + header + margin) + margin
    cv = _Canvas(width, height)

    for r, row in enumerate(panels):
        for c, panel in enumerate(row):
            ox = margin + c * (panel_size + margin)
            oy = margin + header + r * (panel_size + header + margin)

            def px(x):
                return ox + (x - xlim[0]) / (xlim[1] - xlim[0]) * panel_size

            def py(y):
                return oy + panel_size - (y - ylim[0]) / (ylim[1] - ylim[0]) * panel_size

            cv.text(ox, oy - 16, panel["title"], size=11)
            cv.text(ox, oy - 4, panel["annotation"], size=9, color="#555555")
            cv.parts.append(
                f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{panel_size}" '
                f'height="{panel_size}" fill="none" stroke="#999999"/>'
            )
            X = np.asarray(panel["X"], dtype=np.float64)
            y = np.asarray(panel["y"]).ravel()
            noisy = np.asarray(panel["noisy_mask"])
            for i in range(len(y)):
                x1, x2 = X[i]
                if not (xlim[0] <= x1 <= xlim[1] and ylim[0] <= x2 <= ylim[1]):
                    continue
                color = "#d62728" if y[i] > 0 else "#1f77b4"
                cv.circle(px(x1), py(x2), 2.2, color)
                if noisy[i]:
                    cv.circle(px(x1), py(x2), 4.2, "#17becf", fill=False)
            segs = zero_contour_segments(panel["score_fn"], xlim, ylim)
            cv.comment(f"panel {panel['title']}: {len(segs)} boundary segments")
            for (p1, p2) in segs:
                cv.line(px(p1[0]), py(p1[1]), px(p2[0]), py(p2[1]),
                        color="#000000", width=1.2, dash="4,3")
    return cv.render()
