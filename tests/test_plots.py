import re

from saflip import plots


def x_tick_labels(svg):
    y = plots.HEIGHT - plots.MARGIN_B + 20
    return re.findall(rf'<text x="[\d.]+" y="{y}" text-anchor="middle" '
                      rf'font-family="sans-serif" font-size="11">([^<]*)</text>', svg)


def test_histogram_ticks_label_scores_not_offsets():
    svg = plots.histogram_svg({"sa": [0.5, 0.55, 0.6], "placebo": [0.52]})
    assert x_tick_labels(svg) == ["0.5", "0.525", "0.55", "0.575", "0.6"]


def test_ecdf_ticks_start_at_zero():
    svg = plots.ecdf_svg({"sa": [0.5, 0.55, 0.6]})
    assert x_tick_labels(svg) == ["0", "0.15", "0.3", "0.45", "0.6"]
