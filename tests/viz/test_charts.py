"""Tests for chart types and the figure generators."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.viz.charts import Chart
from repro.viz.figures import (
    fig_convergence_boxes,
    fig_memory_timeline,
    fig_occupancy_model,
    fig_progress_curves,
    fig_staleness_histogram,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def texts_of(chart: Chart) -> list[str]:
    root = ET.fromstring(chart.render())
    return [el.text for el in root.iter(f"{SVG_NS}text")]


class TestChart:
    def test_plot_before_scales_rejected(self):
        chart = Chart()
        with pytest.raises(ConfigurationError):
            chart.add_line([0, 1], [0, 1])

    def test_line_chart_renders(self):
        chart = Chart(title="T", x_label="X", y_label="Y")
        chart.set_scales((0, 10), (0, 5))
        chart.draw_frame()
        chart.add_line(np.linspace(0, 10, 20), np.linspace(0, 5, 20), label="series")
        chart.draw_legend()
        labels = texts_of(chart)
        assert "T" in labels and "X" in labels and "Y" in labels and "series" in labels

    def test_nan_splits_polyline(self):
        chart = Chart()
        chart.set_scales((0, 3), (0, 3))
        chart.add_line([0, 1, float("nan"), 2, 3], [0, 1, 1, 2, 3])
        root = ET.fromstring(chart.render())
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2

    def test_box_plot_draws_components(self):
        chart = Chart()
        chart.set_scales((-0.5, 0.5), (0, 10))
        chart.add_box(0, [1, 2, 3, 4, 5])
        root = ET.fromstring(chart.render())
        # whisker stems + caps + median line
        assert len(root.findall(f"{SVG_NS}line")) >= 5
        assert len(root.findall(f"{SVG_NS}rect")) >= 2  # background + box

    def test_box_failures_annotation(self):
        chart = Chart()
        chart.set_scales((-0.5, 0.5), (0, 10))
        chart.add_box(0, [], failures=(2, 1))
        labels = texts_of(chart)
        assert any("D:2" in (t or "") and "C:1" in (t or "") for t in labels)

    def test_histogram_renders_bars(self):
        chart = Chart()
        chart.set_scales((0, 10), (0, 1))
        chart.add_histogram(np.random.default_rng(0).uniform(0, 10, 200), bins=10)
        root = ET.fromstring(chart.render())
        assert len(root.findall(f"{SVG_NS}rect")) > 5

    def test_step_chart(self):
        chart = Chart()
        chart.set_scales((0, 4), (0, 10))
        chart.add_step([0, 1, 2, 3], [1, 5, 2, 8], label="mem")
        root = ET.fromstring(chart.render())
        assert root.findall(f"{SVG_NS}polyline")

    def test_hline(self):
        chart = Chart()
        chart.set_scales((0, 1), (0, 10))
        chart.add_hline(5.0, label="n*")
        assert "n*" in texts_of(chart)

    def test_category_axis(self):
        chart = Chart()
        chart.set_scales((-0.5, 2.5), (0, 1))
        chart.draw_category_axis(["A", "B", "C"])
        labels = texts_of(chart)
        assert {"A", "B", "C"} <= set(labels)


class TestFigureGenerators:
    def test_convergence_boxes(self):
        chart = fig_convergence_boxes(
            {"ASYNC": [1.0, 1.2], "LSH_ps0": [0.8, 0.9]},
            title="demo",
            failures={"ASYNC": (1, 0)},
        )
        labels = texts_of(chart)
        assert "ASYNC" in labels and "LSH_ps0" in labels

    def test_convergence_boxes_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fig_convergence_boxes({}, title="x")

    def test_progress_curves(self):
        chart = fig_progress_curves(
            {"A": ([0, 1, 2], [2.0, 1.0, 0.5]), "B": ([0, 1], [2.0, 1.5])},
            title="progress",
        )
        assert "progress" in texts_of(chart)

    def test_progress_curves_all_short_rejected(self):
        with pytest.raises(ConfigurationError):
            fig_progress_curves({"A": ([0], [1.0])}, title="x")

    def test_staleness_histogram(self):
        chart = fig_staleness_histogram(
            {"HOG": np.array([1, 2, 3, 3, 4]), "LSH": np.array([0, 1, 1])},
            title="tau",
        )
        assert "tau" in texts_of(chart)

    def test_memory_timeline(self):
        t = np.linspace(0, 1, 10)
        chart = fig_memory_timeline(
            {"ASYNC": (t, np.full(10, 3.3e6)), "LSH": (t, np.linspace(2e6, 3e6, 10))},
            title="mem",
        )
        assert "mem" in texts_of(chart)

    def test_occupancy_model(self):
        t = np.linspace(0, 1, 50)
        occ = np.clip(np.sin(t * 10) + 3, 0, None)
        chart = fig_occupancy_model((t, occ), m=12, tc=2e-3, loop_body=1.2e-3)
        assert any("n*" in (s or "") for s in texts_of(chart))


class TestRenderAllFigures:
    @pytest.mark.slow
    def test_writes_all_files(self, tmp_path, tiny_workloads):
        from repro.viz.figures import render_all_figures

        written = render_all_figures(tmp_path, workloads=tiny_workloads)
        assert len(written) >= 4
        for path in written:
            assert path.exists()
            ET.fromstring(path.read_text())  # valid XML

