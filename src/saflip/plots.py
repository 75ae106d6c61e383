"""Deterministic SVG rendering of ECDFs and histograms.

Hand-rolled rather than a plotting library so repeated runs on the same data
produce byte-identical files.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
BINS = 20


def ecdf_points(values):
    """Sorted (value, cumulative fraction) step points of the empirical CDF."""
    n = len(values)
    return [(v, i / n) for i, v in enumerate(sorted(values), start=1)]


def histogram_counts(values, lo, hi):
    """BINS equal-width bin edges over [lo, hi] and the counts of `values`;
    an empty range is widened to 1e-9."""
    if hi <= lo:
        hi = lo + 1e-9
    width = (hi - lo) / BINS
    counts = [0] * BINS
    for v in values:
        idx = min(int((v - lo) / width), BINS - 1)
        counts[idx] += 1
    edges = [lo + i * width for i in range(BINS + 1)]
    return edges, counts


class _Canvas:
    """Axes over x in [xmin, xmin + xspan] and y in [0, ymax]."""

    def __init__(self, title, xlabel, ylabel, xmin, xspan, ymax):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>',
        ]
        self.xmin = xmin
        self.xspan = xspan if xspan > 0 else 1.0
        self.ymax = ymax if ymax > 0 else 1.0
        self._axes(xlabel, ylabel)

    def px(self, x):
        return MARGIN_L + ((x - self.xmin) / self.xspan) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        return HEIGHT - MARGIN_B - (y / self.ymax) * (HEIGHT - MARGIN_T - MARGIN_B)

    def _axes(self, xlabel, ylabel):
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        p = self.parts
        p.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
        )
        for i in range(5):
            xv = self.xmin + self.xspan * i / 4
            yv = self.ymax * i / 4
            xp, yp = self.px(xv), self.py(yv)
            p.append(
                f'<line x1="{xp:.1f}" y1="{y0}" x2="{xp:.1f}" y2="{y0 + 5}" stroke="black"/>'
                f'<text x="{xp:.1f}" y="{y0 + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
            )
            p.append(
                f'<line x1="{x0 - 5}" y1="{yp:.1f}" x2="{x0}" y2="{yp:.1f}" stroke="black"/>'
                f'<text x="{x0 - 8}" y="{yp + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
            )
        p.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
        p.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{ylabel}</text>'
        )

    def legend(self, labels):
        for i, label in enumerate(labels):
            x = WIDTH - MARGIN_R - 150
            y = MARGIN_T + 14 + 18 * i
            self.parts.append(
                f'<rect x="{x}" y="{y - 9}" width="12" height="12" fill="{COLORS[i % len(COLORS)]}"/>'
                f'<text x="{x + 18}" y="{y + 1}" font-family="sans-serif" font-size="12">{label}</text>'
            )

    def render(self):
        return "".join(self.parts) + "</svg>\n"


def ecdf_svg(series, title="ECDF of performance scores"):
    """Render one or more ECDFs; `series` maps label -> list of values."""
    xmax = max((max(vs) for vs in series.values() if vs), default=0.0)
    canvas = _Canvas(title, "score", "cumulative fraction", xmin=0.0,
                     xspan=max(xmax, 1e-12), ymax=1.0)
    for i, (label, values) in enumerate(series.items()):
        if not values:
            continue
        points = ecdf_points(values)
        color = COLORS[i % len(COLORS)]
        path = [f"M {canvas.px(0):.2f} {canvas.py(0):.2f}"]
        prev_y = 0.0
        for x, y in points:
            path.append(f"L {canvas.px(x):.2f} {canvas.py(prev_y):.2f}")
            path.append(f"L {canvas.px(x):.2f} {canvas.py(y):.2f}")
            prev_y = y
        path.append(f"L {canvas.px(canvas.xmin + canvas.xspan):.2f} {canvas.py(prev_y):.2f}")
        canvas.parts.append(
            f'<path d="{" ".join(path)}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
    canvas.legend(list(series.keys()))
    return canvas.render()


def histogram_svg(series, title="Histogram of performance scores"):
    """Render overlaid histograms sharing one set of BINS bin edges."""
    all_values = [v for vs in series.values() for v in vs]
    lo = min(all_values, default=0.0)
    hi = max(all_values, default=1.0)
    per_series = {
        label: histogram_counts(values, lo, hi)
        for label, values in series.items()
        if values
    }
    ymax = max((max(c) for _, c in per_series.values()), default=1)
    canvas = _Canvas(title, "score", "runs", xmin=lo, xspan=max(hi - lo, 1e-12),
                     ymax=float(ymax))
    k = max(len(per_series), 1)
    for i, (label, (edges, counts)) in enumerate(per_series.items()):
        color = COLORS[i % len(COLORS)]
        for b, count in enumerate(counts):
            if count == 0:
                continue
            full_x0 = canvas.px(edges[b])
            full_x1 = canvas.px(edges[b + 1])
            bar_w = (full_x1 - full_x0) / k
            x = full_x0 + i * bar_w
            y = canvas.py(count)
            canvas.parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{canvas.py(0) - y:.2f}" fill="{color}" fill-opacity="0.8"/>'
            )
    canvas.legend(list(per_series.keys()))
    return canvas.render()
