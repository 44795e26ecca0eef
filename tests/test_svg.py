import math

import pytest

from rodwave.svg import line_plot


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
