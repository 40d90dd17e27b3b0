"""Tests for the SVG builder and scales."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.errors import ConfigurationError
from repro.viz.scale import LinearScale, nice_ticks
from repro.viz.svg import SvgCanvas

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(canvas: SvgCanvas) -> ET.Element:
    return ET.fromstring(canvas.render())


class TestSvgCanvas:
    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            SvgCanvas(0, 100)

    def test_renders_wellformed_xml(self):
        c = SvgCanvas(100, 50)
        c.line(0, 0, 10, 10)
        c.rect(1, 1, 5, 5, fill="red")
        c.polyline([(0, 0), (1, 1), (2, 0)])
        c.text(5, 5, "hello <world> & more")
        root = parse(c)
        assert root.tag == f"{SVG_NS}svg"
        assert root.attrib["width"] == "100"

    def test_text_is_escaped(self):
        c = SvgCanvas(10, 10)
        c.text(0, 0, "<&>")
        root = parse(c)
        text = root.find(f"{SVG_NS}text")
        assert text.text == "<&>"

    def test_element_count(self):
        c = SvgCanvas(10, 10)  # background rect = 1
        c.line(0, 0, 1, 1)
        c.rect(0, 0, 1, 1)
        assert len(c) == 3

    def test_short_polyline_ignored(self):
        c = SvgCanvas(10, 10)
        before = len(c)
        c.polyline([(1, 1)])
        assert len(c) == before

    def test_save(self, tmp_path):
        c = SvgCanvas(10, 10)
        path = c.save(tmp_path / "sub" / "x.svg")
        assert path.exists()
        assert path.read_text().startswith("<svg")

    def test_rotated_text_has_transform(self):
        c = SvgCanvas(10, 10)
        c.text(5, 5, "x", rotate=-90)
        assert "rotate(-90" in c.render()

    def test_dashed_line(self):
        c = SvgCanvas(10, 10)
        c.line(0, 0, 5, 5, dash="4,3")
        assert 'stroke-dasharray="4,3"' in c.render()


class TestNiceTicks:
    def test_covers_simple_range(self):
        ticks = nice_ticks(0, 10)
        assert ticks[0] >= 0 and ticks[-1] <= 10
        assert len(ticks) >= 3

    def test_degenerate_range(self):
        assert nice_ticks(3.0, 3.0) == [3.0]

    def test_reversed_range(self):
        assert nice_ticks(10, 0) == nice_ticks(0, 10)

    def test_small_range(self):
        ticks = nice_ticks(0.001, 0.009)
        assert all(0.001 <= t <= 0.009 for t in ticks)

    def test_steps_are_uniform(self):
        ticks = nice_ticks(0, 97)
        diffs = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
        assert len(diffs) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            nice_ticks(0, float("inf"))


class TestLinearScale:
    def test_maps_endpoints(self):
        s = LinearScale((0, 10), (100, 200))
        assert s(0) == 100 and s(10) == 200

    def test_flipped_range(self):
        s = LinearScale((0, 1), (300, 40))  # SVG y axis
        assert s(0) == 300 and s(1) == 40
        assert s(0.5) == pytest.approx(170)

    def test_degenerate_domain_does_not_divide_by_zero(self):
        s = LinearScale((5, 5), (0, 100))
        assert s(5) == 0.0

    def test_ticks_within_domain(self):
        s = LinearScale((2, 37), (0, 100))
        assert all(2 <= t <= 37 for t in s.ticks())

    def test_nonfinite_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearScale((0, float("nan")), (0, 1))
