"""Dependency-free SVG visualization of the reproduction's figures.

matplotlib is not available in the reproduction environment, so this
package implements the small slice of plotting the paper's figures need
from scratch: an SVG document builder (:mod:`repro.viz.svg`), linear
scales with nice tick generation (:mod:`repro.viz.scale`), chart types —
line charts, box plots, histograms, step charts —
(:mod:`repro.viz.charts`), and per-figure generators turning experiment
results into the paper's plots (:mod:`repro.viz.figures`).

Generate everything with::

    python -m repro figures --out figures/
"""

from repro.viz.svg import SvgCanvas
from repro.viz.scale import LinearScale, nice_ticks
from repro.viz.charts import Chart, PALETTE
from repro.viz.figures import (
    fig_convergence_boxes,
    fig_progress_curves,
    fig_staleness_histogram,
    fig_memory_timeline,
    fig_occupancy_model,
    render_all_figures,
)

__all__ = [
    "SvgCanvas",
    "LinearScale",
    "nice_ticks",
    "Chart",
    "PALETTE",
    "fig_convergence_boxes",
    "fig_progress_curves",
    "fig_staleness_histogram",
    "fig_memory_timeline",
    "fig_occupancy_model",
    "render_all_figures",
]
