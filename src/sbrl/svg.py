"""Minimal deterministic SVG line plots (no plotting dependency).

Output bytes depend only on the data, so repeated runs with the same
resolved configuration produce identical files.
"""

_COLORS = ("#1f6fb2", "#d95f02", "#2a9d4e", "#8c4fb0", "#c02942", "#666666")


def _fmt(v):
    return format(float(v), ".6g")


def line_plot(path, series, title=""):
    """Write a line plot over k; ``series`` is a list of (label, xs, ys)."""
    width, height = 720, 420
    margin_l, margin_r, margin_t, margin_b = 60, 20, 34, 40
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x):
        return margin_l + (float(x) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + (1.0 - (float(y) - y_lo) / (y_hi - y_lo)) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333"/>'
    )
    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        gx = _fmt(sx(xv))
        gy = _fmt(sy(yv))
        out.append(
            f'<line x1="{gx}" y1="{margin_t}" x2="{gx}" '
            f'y2="{margin_t + plot_h}" stroke="#ddd"/>'
        )
        out.append(
            f'<line x1="{margin_l}" y1="{gy}" x2="{margin_l + plot_w}" '
            f'y2="{gy}" stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{gx}" y="{height - 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>'
        )
        out.append(
            f'<text x="{margin_l - 6}" y="{gy}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>'
        )
    out.append(
        f'<text x="{margin_l + plot_w // 2}" y="{height - 6}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">k</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.4"/>'
        )
        ly = margin_t + 14 + 14 * i
        lx = margin_l + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    data = "\n".join(out) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    return path
