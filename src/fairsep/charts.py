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


def _empty_chart(title: str, note: str) -> str:
    parts = _svg_open(640, 160, title)
    parts.append(f'<text x="320" y="90" text-anchor="middle" font-size="13" '
                 f'{FONT} fill="#777777">{escape(note)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grouped_bars_by_category(
    categories: list[str],
    series: list[tuple[str, dict[str, float | None]]],
    title: str,
    ylabel: str = "rate",
    ymax: float = 1.0,
) -> str:
    """Bar clusters per category; ``series`` maps category to value (None = gap)."""
    if not categories or not series:
        return _empty_chart(title, "no data")
    width, height = max(640, 70 * len(categories) + 180), 360
    left, right, top, bottom = 60, 120, 40, 70
    plot_w, plot_h = width - left - right, height - top - bottom
    parts = _svg_open(width, height, title)
    # axes and gridlines
    for i in range(5):
        frac = i / 4
        gy = top + plot_h * (1 - frac)
        parts.append(f'<line x1="{left}" y1="{_fmt(gy)}" x2="{left + plot_w}" '
                     f'y2="{_fmt(gy)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 6}" y="{_fmt(gy + 4)}" text-anchor="end" '
                     f'font-size="10" {FONT} fill="#555555">{_fmt(ymax * frac)}</text>')
    parts.append(f'<text x="16" y="{_fmt(top + plot_h / 2)}" font-size="11" {FONT} '
                 f'fill="#555555" transform="rotate(-90 16 {_fmt(top + plot_h / 2)})" '
                 f'text-anchor="middle">{escape(ylabel)}</text>')
    cluster_w = plot_w / len(categories)
    bar_w = cluster_w * 0.8 / max(1, len(series))
    for ci, cat in enumerate(categories):
        cx = left + cluster_w * (ci + 0.5)
        parts.append(f'<text x="{_fmt(cx)}" y="{height - bottom + 16}" '
                     f'text-anchor="middle" font-size="10" {FONT} '
                     f'fill="#333333">{escape(str(cat))}</text>')
        for si, (label, values) in enumerate(series):
            v = values.get(cat)
            if v is None:
                continue
            h = plot_h * min(max(v / ymax, 0.0), 1.0)
            bx = cx - (len(series) * bar_w) / 2 + si * bar_w
            by = top + plot_h - h
            color = PALETTE[si % len(PALETTE)]
            parts.append(f'<rect x="{_fmt(bx)}" y="{_fmt(by)}" width="{_fmt(bar_w * 0.92)}" '
                         f'height="{_fmt(h)}" fill="{color}"/>')
            parts.append(f'<text x="{_fmt(bx + bar_w * 0.46)}" y="{_fmt(by - 3)}" '
                         f'text-anchor="middle" font-size="8" {FONT} '
                         f'fill="#444444">{_fmt(round(v, 3))}</text>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
                 f'y2="{top + plot_h}" stroke="#333333" stroke-width="1"/>')
    _legend(parts, [label for label, _ in series], left + plot_w + 14, top)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def subgroup_panels(
    panels: list[tuple[str, dict[str, float | None]]],
    series_labels: list[str],
    title: str,
    ymax: float = 1.0,
) -> str:
    """Small multiples: one mini panel per subgroup, one bar per series label."""
    if not panels or not series_labels:
        return _empty_chart(title, "no data")
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
        parts.append(f'<text x="{_fmt(px + panel_w / 2)}" y="{py + 14}" '
                     f'text-anchor="middle" font-size="10" {FONT} '
                     f'fill="#333333">{escape(panel_title)}</text>')
        plot_h = panel_h - 40
        bar_w = (panel_w - 20) / max(1, len(series_labels))
        for si, label in enumerate(series_labels):
            v = values.get(label)
            if v is None:
                continue
            h = plot_h * min(max(v / ymax, 0.0), 1.0)
            bx = px + 10 + si * bar_w
            by = py + 22 + plot_h - h
            parts.append(f'<rect x="{_fmt(bx + bar_w * 0.08)}" y="{_fmt(by)}" '
                         f'width="{_fmt(bar_w * 0.84)}" height="{_fmt(h)}" '
                         f'fill="{PALETTE[si % len(PALETTE)]}"/>')
            parts.append(f'<text x="{_fmt(bx + bar_w / 2)}" y="{_fmt(by - 2)}" '
                         f'text-anchor="middle" font-size="8" {FONT} '
                         f'fill="#444444">{_fmt(round(v, 3))}</text>')
    _legend(parts, series_labels, width - 110, 50)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ppr_ratio_by_effort(
    bins: list[str],
    curves: list[tuple[str, list[float | None]]],
    title: str,
) -> str:
    """Ratio curves over effort bins; dashed reference line at ratio 1."""
    if not bins or not curves:
        return _empty_chart(title, "no data")
    width, height = 640, 360
    left, right, top, bottom = 60, 130, 40, 70
    plot_w, plot_h = width - left - right, height - top - bottom
    finite = [v for _, vals in curves for v in vals if v is not None]
    ymax = max(1.5, max(finite) * 1.1) if finite else 1.5
    parts = _svg_open(width, height, title)
    for i in range(5):
        frac = i / 4
        gy = top + plot_h * (1 - frac)
        parts.append(f'<line x1="{left}" y1="{_fmt(gy)}" x2="{left + plot_w}" '
                     f'y2="{_fmt(gy)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 6}" y="{_fmt(gy + 4)}" text-anchor="end" '
                     f'font-size="10" {FONT} fill="#555555">{_fmt(ymax * frac)}</text>')
    ref_y = top + plot_h * (1 - 1.0 / ymax)
    parts.append(f'<line x1="{left}" y1="{_fmt(ref_y)}" x2="{left + plot_w}" '
                 f'y2="{_fmt(ref_y)}" stroke="#888888" stroke-width="1" '
                 f'stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{left + plot_w + 4}" y="{_fmt(ref_y + 4)}" font-size="9" '
                 f'{FONT} fill="#888888">parity</text>')
    step = plot_w / max(1, len(bins) - 1) if len(bins) > 1 else 0.0
    for bi, label in enumerate(bins):
        bx = left + (step * bi if len(bins) > 1 else plot_w / 2)
        parts.append(f'<text x="{_fmt(bx)}" y="{height - bottom + 16}" '
                     f'text-anchor="middle" font-size="9" {FONT} '
                     f'fill="#333333">{escape(str(label))}</text>')
    for si, (label, vals) in enumerate(curves):
        color = PALETTE[si % len(PALETTE)]
        points = []
        for bi, v in enumerate(vals):
            if v is None:
                continue
            bx = left + (step * bi if len(bins) > 1 else plot_w / 2)
            by = top + plot_h * (1 - min(v, ymax) / ymax)
            points.append((bx, by))
        if len(points) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="2"/>')
        for x, y_pt in points:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y_pt)}" r="3" '
                         f'fill="{color}"/>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
                 f'y2="{top + plot_h}" stroke="#333333" stroke-width="1"/>')
    _legend(parts, [label for label, _ in curves], left + plot_w + 14, top)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
