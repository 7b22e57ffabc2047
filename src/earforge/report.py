"""Deterministic SVG plots for campaign reporting (no graphics dependency)."""

from __future__ import annotations

import numpy as np

_W = 640
_H = 480
# polar plots: centre and radius of the target circle, px
_CX, _CY, _BASE_R = _W / 2.0, _H / 2.0 + 10.0, 150.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _svg(elements: list[str]) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">\n'
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _polyline(xs, ys, color: str, width: float = 1.5) -> str:
    # one C-level format per point; "%.3f" prints as _fmt does
    pts = " ".join(map("%.3f,%.3f".__mod__,
                       zip(np.asarray(xs).tolist(), np.asarray(ys).tolist())))
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _text(x: float, y: float, s: str, size: int = 13, anchor: str = "start",
          color: str = "#333333") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{color}">{s}</text>')


def _polar_xy(theta, radii):
    return _CX + radii * np.cos(theta), _CY - radii * np.sin(theta)


def _polar_frame(title: str, *deviations) -> tuple[list[str], float]:
    """The title and dashed target circle of a polar plot, and its scale in
    px/mm: the largest |deviation| of all lies 60 px off the circle."""
    amp = max(1e-9, *(float(np.max(np.abs(dev))) for dev in deviations))
    return [_text(_W / 2.0, 24, title, size=15, anchor="middle"),
            f'<circle cx="{_fmt(_CX)}" cy="{_fmt(_CY)}" r="{_fmt(_BASE_R)}" '
            f'fill="none" stroke="#999999" stroke-dasharray="4 3"/>'], 60 / amp


def _polar_trace(theta, dev, scale: float, color: str) -> str:
    """A deviation as a closed line about the target circle."""
    xs, ys = _polar_xy(np.append(theta, theta[0]),
                       _BASE_R + scale * np.append(dev, dev[0]))
    return _polyline(xs, ys, color, 2.0)


def polar_deviation_svg(theta: np.ndarray, deviation: np.ndarray,
                        title: str) -> str:
    """Polar plot of rim deviation around the target circle."""
    elems, scale = _polar_frame(title, deviation)
    elems.append(_text(_CX + _BASE_R + 8, _CY + 4, "target", size=11,
                       color="#777777"))
    elems.append(_polar_trace(theta, deviation, scale, "#c0392b"))
    for ang, label in ((0.0, "0"), (np.pi / 2, "90"), (np.pi, "180"),
                       (3 * np.pi / 2, "270")):
        x, y = _polar_xy(np.array([ang]), np.array([_BASE_R + 78.0]))
        elems.append(_text(float(x[0]), float(y[0]) + 4, label, size=11,
                           anchor="middle", color="#777777"))
    pp = float(np.max(deviation) - np.min(deviation))
    elems.append(_text(16, _H - 16,
                       f"peak-to-peak = {pp:.4f} mm (scale {scale:.1f} px/mm)",
                       size=12))
    return _svg(elems)


def modal_bars_svg(series: list[tuple[str, np.ndarray]], title: str) -> str:
    """Grouped bar chart of modal coordinates, one group per mode."""
    colors = ("#2980b9", "#c0392b", "#27ae60")
    n_modes = len(series[0][1])
    left, right, top, bottom = 70.0, 30.0, 50.0, 60.0
    plot_w = _W - left - right
    plot_h = _H - top - bottom
    vmax = max(max(float(np.max(np.abs(v))) for _, v in series), 1e-9)
    y0 = top + plot_h / 2.0
    yscale = (plot_h / 2.0 - 10.0) / vmax
    group_w = plot_w / n_modes
    bar_w = group_w / (len(series) + 1)
    elems = [
        _text(_W / 2.0, 24, title, size=15, anchor="middle"),
        f'<line x1="{_fmt(left)}" y1="{_fmt(y0)}" x2="{_fmt(left + plot_w)}" '
        f'y2="{_fmt(y0)}" stroke="#555555"/>',
        _text(left - 8, y0 + 4, "0", size=11, anchor="end", color="#777777"),
        _text(left - 8, y0 - vmax * yscale + 4, f"{vmax:.3g}", size=11,
              anchor="end", color="#777777"),
    ]
    for k in range(n_modes):
        gx = left + k * group_w
        elems.append(_text(gx + group_w / 2.0, y0 + plot_h / 2.0 + 20,
                           f"L{k + 1}", size=12, anchor="middle"))
        for s, (label, values) in enumerate(series):
            v = float(values[k])
            h = abs(v) * yscale
            x = gx + (s + 0.5) * bar_w
            y = y0 - h if v >= 0 else y0
            elems.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w * 0.85)}" '
                f'height="{_fmt(h)}" fill="{colors[s % len(colors)]}"/>')
    for s, (label, _) in enumerate(series):
        elems.append(
            f'<rect x="{_fmt(left + 10 + 130 * s)}" y="{_fmt(_H - 30)}" '
            f'width="12" height="12" fill="{colors[s % len(colors)]}"/>')
        elems.append(_text(left + 28 + 130 * s, _H - 20, label, size=12))
    return _svg(elems)


def overlay_polar_svg(theta: np.ndarray, dev_a: np.ndarray, dev_b: np.ndarray,
                      label_a: str, label_b: str, title: str) -> str:
    """Two rim deviations overlaid on the same polar target circle."""
    elems, scale = _polar_frame(title, dev_a, dev_b)
    for dev, color, label, dy in ((dev_a, "#2980b9", label_a, 0),
                                  (dev_b, "#c0392b", label_b, 18)):
        elems.append(_polar_trace(theta, dev, scale, color))
        elems.append(f'<rect x="16" y="{_fmt(_H - 44 + dy)}" width="12" '
                     f'height="12" fill="{color}"/>')
        pp = float(np.max(dev) - np.min(dev))
        elems.append(_text(34, _H - 34 + dy, f"{label} (p-p {pp:.4f} mm)",
                           size=12))
    return _svg(elems)
