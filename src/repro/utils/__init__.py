"""Small shared utilities: seeded RNG management, validation helpers,
ASCII table/figure rendering, and real wall-clock timing."""

from repro.utils.rng import RngFactory
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_choices,
)
from repro.utils.tables import render_table, render_boxes, render_series
from repro.utils.timing import WallTimer, time_callable

__all__ = [
    "RngFactory",
    "check_positive",
    "check_non_negative",
    "check_in_choices",
    "render_table",
    "render_boxes",
    "render_series",
    "WallTimer",
    "time_callable",
]
