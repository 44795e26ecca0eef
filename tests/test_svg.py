import math
import re
import sys

import pytest

from rodwave.svg import _ticks, line_plot


def test_line_plot_refuses_nothing_to_draw(tmp_path):
    with pytest.raises(ValueError, match="^line_plot: nothing to draw$"):
        line_plot(tmp_path / "p.svg", [1.0, 2.0], [("y", [math.nan, math.inf])])


def test_line_plot_shades_only_bands_inside_the_x_range(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(path, [1.0, 2.0], [("y", [0.0, 1.0])], bands=[(3.0, 4.0), (1.5, 2.5)])
    svg = path.read_text()
    assert svg.count('fill="#f2d8d8"') == 1
    # the shading runs from x = 1.5, halfway across the plot, to its right edge
    assert '<rect x="455.00" y="36" width="385.00" ' in svg


@pytest.mark.parametrize(
    "lo, hi",
    [(1.0, 1.0 + 4 * 2**-52), (1e9, 1000000000.000001), (1.0, 1.0 + 2**-52),
     # (hi - lo) / 6 rounds to 0 below the float spacing of subnormals
     (5e-324, 1e-323), (0.0, 5e-324)],
)
def test_an_axis_a_few_ulps_wide_gets_at_most_n_plus_one_ticks_on_it(lo, hi):
    # the tick step is below the float spacing there: its multiples round to whole ulps
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 7
    assert all(lo <= t <= hi for t in ticks)
    assert ticks == sorted(set(ticks))


@pytest.mark.parametrize(
    "lo, hi, labels",
    [
        (-0.7, 0.5, ["-0.6", "-0.4", "-0.2", "0", "0.2", "0.4"]),
        # -0.6 / 0.2 is -2.9999999999999996: a tick at each axis end all the same
        (-0.6, 0.6, ["-0.6", "-0.4", "-0.2", "0", "0.2", "0.4", "0.6"]),
        # hi - lo overflows
        (-1e308, 1e308, ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]),
    ],
)
def test_ticks_are_multiples_of_their_step_from_axis_end_to_axis_end(lo, hi, labels):
    ticks = _ticks(lo, hi)
    assert [f"{t:g}" for t in ticks] == labels
    assert ticks[labels.index("0")] == 0.0
    assert all(lo <= t <= hi for t in ticks)


@pytest.mark.parametrize(
    "x, ys, points",
    [
        # from the plot's bottom left to its top right corner
        ([1.0, 2.0], [5e-324, 1e-323], "70.00,470.00 840.00,36.00"),
        ([1.0, 2.0], [-1e308, 1e308], "70.00,470.00 840.00,36.00"),
        # a one-value axis at the largest float spans down to the float below it
        ([1.0], [sys.float_info.max], "70.00,36.00"),
    ],
)
def test_line_plot_draws_axes_of_subnormals_and_at_the_float_range_ends(tmp_path, x, ys, points):
    path = tmp_path / "p.svg"
    line_plot(path, x, [("y", ys)])
    svg = path.read_text()
    assert f'<polyline points="{points}" ' in svg
    y_labels = re.findall(r'text-anchor="end">([^<]+)<', svg)
    assert y_labels and all(math.isfinite(float(label)) for label in y_labels)
