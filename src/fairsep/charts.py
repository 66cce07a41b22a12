"""Static SVG charts rendered with no external dependencies.

Three layouts cover the reporting needs:

* ``grouped_bars_by_category`` — one bar cluster per category, one bar per
  series (e.g. positive-rate per occupation and sex)
* ``subgroup_panels`` — small multiples: one mini bar panel per subgroup slice
* ``ppr_ratio_by_effort`` — ratio curves across effort bins with a reference
  line at 1.0

Output is deterministic: fixed canvas, fixed palette, fixed float formatting,
no timestamps or generated ids.
"""

from __future__ import annotations

PALETTE = ("#4878cf", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")
FONT = "font-family=\"Helvetica, Arial, sans-serif\""
# The plot of a chart with axes: its left and top margins and its height, on a
# canvas of HEIGHT; the right margin holds the legend and varies by chart.
LEFT, TOP, PLOT_H, HEIGHT = 60, 40, 250, 360
RATE_MAX = 1.0  # the top of every positive-rate axis


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped for SVG character data (``&`` first)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    """Fixed-precision coordinate/label formatting (no trailing zeros)."""
    s = f"{v:.4f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" font-size="15" '
        f'{FONT} fill="#222222">{escape(title)}</text>',
    ]


def _legend(parts: list[str], labels: list[str], x: float, y: float) -> None:
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y + 16 * i)}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(x + 14)}" y="{_fmt(y + 16 * i + 9)}" '
                     f'font-size="11" {FONT} fill="#222222">{escape(label)}</text>')


def _text(parts: list[str], x: float, y: float, text: str, size: int,
          fill: str = "#333333") -> None:
    """``text`` centred at ``x`` on the baseline ``y``."""
    parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="middle" font-size="{size}" '
                 f'{FONT} fill="{fill}">{escape(text)}</text>')


def _axes(width: int, right: int, title: str, ymax: float) -> tuple[list[str], int]:
    """A canvas whose plot spans ``LEFT`` to ``width - right``, with five gridlines from
    0 to ``ymax``, each labelled left of it; and the plot's width."""
    parts = _svg_open(width, HEIGHT, title)
    plot_w = width - LEFT - right
    for i in range(5):
        frac = i / 4
        gy = TOP + PLOT_H * (1 - frac)
        parts.append(f'<line x1="{LEFT}" y1="{_fmt(gy)}" x2="{LEFT + plot_w}" '
                     f'y2="{_fmt(gy)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{LEFT - 6}" y="{_fmt(gy + 4)}" text-anchor="end" '
                     f'font-size="10" {FONT} fill="#555555">{_fmt(ymax * frac)}</text>')
    return parts, plot_w


def _bar(parts: list[str], v: float | None, ymax: float, top: float, plot_h: float,
         x: float, width: float, mid: float, gap: float, series: int) -> None:
    """Series ``series``'s bar for ``v`` (none for None) on a plot from ``top`` down
    ``plot_h``, clipped to [0, ``ymax``], with ``v`` written ``gap`` above it at ``mid``."""
    if v is None:
        return
    h = plot_h * min(max(v / ymax, 0.0), 1.0)
    y = top + plot_h - h
    parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" '
                 f'height="{_fmt(h)}" fill="{PALETTE[series % len(PALETTE)]}"/>')
    _text(parts, mid, y - gap, _fmt(round(v, 3)), 8, "#444444")


def _baseline(parts: list[str], plot_w: int, labels: list[str]) -> None:
    """The x axis under the plot, and the legend right of it."""
    parts.append(f'<line x1="{LEFT}" y1="{TOP + PLOT_H}" x2="{LEFT + plot_w}" '
                 f'y2="{TOP + PLOT_H}" stroke="#333333" stroke-width="1"/>')
    _legend(parts, labels, LEFT + plot_w + 14, TOP)


def _close(parts: list[str]) -> str:
    return "\n".join(parts + ["</svg>"]) + "\n"


def grouped_bars_by_category(
    categories: list[str],
    series: list[tuple[str, dict[str, float | None]]],
    title: str,
) -> str:
    """Bar clusters per category; ``series`` maps category to value (None = gap)."""
    parts, plot_w = _axes(max(640, 70 * len(categories) + 180), 120, title, RATE_MAX)
    parts.append(f'<text x="16" y="{_fmt(TOP + PLOT_H / 2)}" font-size="11" {FONT} '
                 f'fill="#555555" transform="rotate(-90 16 {_fmt(TOP + PLOT_H / 2)})" '
                 f'text-anchor="middle">positive rate</text>')
    cluster_w = plot_w / len(categories)
    bar_w = cluster_w * 0.8 / max(1, len(series))
    for ci, cat in enumerate(categories):
        cx = LEFT + cluster_w * (ci + 0.5)
        _text(parts, cx, TOP + PLOT_H + 16, str(cat), 10)
        for si, (label, values) in enumerate(series):
            bx = cx - (len(series) * bar_w) / 2 + si * bar_w
            _bar(parts, values.get(cat), RATE_MAX, TOP, PLOT_H, bx, bar_w * 0.92,
                 bx + bar_w * 0.46, 3, si)
    _baseline(parts, plot_w, [label for label, _ in series])
    return _close(parts)


def subgroup_panels(
    panels: list[tuple[str, dict[str, float | None]]],
    series_labels: list[str],
    title: str,
) -> str:
    """Small multiples: one mini panel per subgroup, one bar per series label."""
    panel_w, panel_h, pad = 150, 180, 24
    cols = min(4, len(panels))
    rows = (len(panels) + cols - 1) // cols
    width = max(640, cols * (panel_w + pad) + pad + 120)
    height = 50 + rows * (panel_h + pad)
    parts = _svg_open(width, height, title)
    for pi, (panel_title, values) in enumerate(panels):
        px = pad + (pi % cols) * (panel_w + pad)
        py = 44 + (pi // cols) * (panel_h + pad)
        parts.append(f'<rect x="{px}" y="{py}" width="{panel_w}" height="{panel_h}" '
                     f'fill="#fafafa" stroke="#cccccc"/>')
        _text(parts, px + panel_w / 2, py + 14, panel_title, 10)
        bar_w = (panel_w - 20) / max(1, len(series_labels))
        for si, label in enumerate(series_labels):
            bx = px + 10 + si * bar_w
            _bar(parts, values.get(label), RATE_MAX, py + 22, panel_h - 40, bx + bar_w * 0.08,
                 bar_w * 0.84, bx + bar_w / 2, 2, si)
    _legend(parts, series_labels, width - 110, 50)
    return _close(parts)


def ppr_ratio_by_effort(
    bins: list[str],
    curves: list[tuple[str, list[float | None]]],
    title: str,
) -> str:
    """Ratio curves over effort bins; dashed reference line at ratio 1."""
    finite = [v for _, vals in curves for v in vals if v is not None]
    ymax = max(1.5, max(finite) * 1.1) if finite else 1.5
    parts, plot_w = _axes(640, 130, title, ymax)
    ref_y = TOP + PLOT_H * (1 - 1.0 / ymax)
    parts.append(f'<line x1="{LEFT}" y1="{_fmt(ref_y)}" x2="{LEFT + plot_w}" '
                 f'y2="{_fmt(ref_y)}" stroke="#888888" stroke-width="1" '
                 f'stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{LEFT + plot_w + 4}" y="{_fmt(ref_y + 4)}" font-size="9" '
                 f'{FONT} fill="#888888">parity</text>')
    xs = ([LEFT + plot_w / (len(bins) - 1) * bi for bi in range(len(bins))]
          if len(bins) > 1 else [LEFT + plot_w / 2])
    for x, label in zip(xs, bins):
        _text(parts, x, TOP + PLOT_H + 16, str(label), 9)
    for si, (label, vals) in enumerate(curves):
        color = PALETTE[si % len(PALETTE)]
        points = [(x, TOP + PLOT_H * (1 - min(v, ymax) / ymax))
                  for x, v in zip(xs, vals) if v is not None]
        if len(points) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="2"/>')
        for x, y in points:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
    _baseline(parts, plot_w, [label for label, _ in curves])
    return _close(parts)
