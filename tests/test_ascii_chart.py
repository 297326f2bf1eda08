"""Unit tests for the ASCII figure renderer."""

from __future__ import annotations

import pytest

from repro.experiments.figures import AsciiChart, figure_from_table
from repro.experiments.reporting import Table
from repro.metrics.stats import Summary


def test_ascii_chart_renders_series():
    chart = AsciiChart("T", x_label="n", y_label="u", width=40, height=8)
    chart.add_series("up", [1, 2, 3, 4], [0.1, 0.4, 0.7, 1.0])
    chart.add_series("down", [1, 2, 3, 4], [1.0, 0.6, 0.3, 0.0])
    text = chart.render()
    assert "T" in text
    assert "* up" in text and "o down" in text
    assert "(n)" in text
    # The glyphs actually appear in the plot area.
    assert text.count("*") >= 4 and text.count("o") >= 4


def test_ascii_chart_flat_series():
    chart = AsciiChart("flat", width=20, height=5)
    chart.add_series("c", [0, 1], [2.0, 2.0])
    assert "c" in chart.render()  # degenerate y-range handled


def test_ascii_chart_validation():
    chart = AsciiChart("T")
    with pytest.raises(ValueError):
        chart.render()  # no series
    with pytest.raises(ValueError):
        chart.add_series("s", [1, 2], [1.0])
    chart.add_series("s", [1], [1.0])
    with pytest.raises(ValueError):
        chart.add_series("s", [1], [1.0])  # duplicate
    with pytest.raises(ValueError):
        AsciiChart("T", width=5)


def test_figure_from_table():
    table = Table("data", ["x", "y"])
    table.add_row(1, Summary(0.5, 0, 0, 1, 0.5, 0.5))
    table.add_row(2, Summary(0.8, 0, 0, 1, 0.8, 0.8))
    chart = figure_from_table(table, "x", ["y"], title="F", y_label="val")
    assert "F" in chart.render()
