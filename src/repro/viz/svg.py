"""Minimal SVG document builder.

Only what the charts need: primitive shapes with styles, text with
anchoring/rotation, and grouping. Coordinates follow SVG conventions
(y grows downward); the chart layer handles flipping.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigurationError


def _fmt(value: float) -> str:
    """Compact numeric attribute formatting."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


class SvgCanvas:
    """An append-only SVG document of fixed pixel size."""

    def __init__(self, width: int, height: int, *, background: str = "white") -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError(f"canvas size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self._elements: list[str] = []
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    # -- primitives -----------------------------------------------------
    def line(
        self, x1: float, y1: float, x2: float, y2: float,
        *, stroke: str = "black", width: float = 1.0, dash: str | None = None,
        opacity: float = 1.0,
    ) -> None:
        """A straight line segment."""
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{stroke}" stroke-width="{_fmt(width)}"'
            f' opacity="{_fmt(opacity)}"{dash_attr}/>'
        )

    def rect(
        self, x: float, y: float, w: float, h: float,
        *, fill: str = "none", stroke: str = "black", stroke_width: float = 1.0,
        opacity: float = 1.0,
    ) -> None:
        """An axis-aligned rectangle."""
        self._elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}"'
            f' fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
            f' opacity="{_fmt(opacity)}"/>'
        )

    def polyline(
        self, points: Sequence[tuple[float, float]],
        *, stroke: str = "black", width: float = 1.5, dash: str | None = None,
        opacity: float = 1.0,
    ) -> None:
        """An open polyline through ``points``."""
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_fmt(width)}" opacity="{_fmt(opacity)}"{dash_attr}/>'
        )

    def text(
        self, x: float, y: float, content: str,
        *, size: int = 11, anchor: str = "start", color: str = "#222",
        rotate: float | None = None, bold: bool = False,
    ) -> None:
        """A text label. ``anchor``: start | middle | end."""
        transform = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' if rotate else ""
        weight = ' font-weight="bold"' if bold else ""
        self._elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"'
            f' font-family="sans-serif" text-anchor="{anchor}" fill="{color}"'
            f"{weight}{transform}>{html.escape(content)}</text>"
        )

    # -- output -----------------------------------------------------------
    def render(self) -> str:
        """The complete SVG document as a string."""
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}"'
            f' height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path: str | Path) -> Path:
        """Write the document to ``path`` (parent dirs created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render())
        return path

    def __len__(self) -> int:
        """Number of elements added (background included)."""
        return len(self._elements)
