"""Virtual wall-clock for the discrete-event simulator.

All of the paper's time measurements (time to epsilon-convergence, time
per iteration, memory timelines, staleness-over-time plots) are taken on
this clock, in virtual seconds. The clock only moves forward; the
scheduler owns advancement.

``now`` is a plain slot rather than a property: thread bodies read it
several times per simulated event (every probe carries a timestamp), and
an attribute load costs a fraction of a property call. Read it; only
:meth:`advance_to` and the scheduler's run loop write it.
"""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """Monotonically non-decreasing simulated time, in seconds."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if not (start >= 0.0):
            raise SimulationError(f"clock must start at a non-negative time, got {start!r}")
        #: Current virtual time in seconds.
        self.now = float(start)

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Raises
        ------
        SimulationError
            If ``t`` would move the clock backwards (events must be
            processed in timestamp order).
        """
        if t < self.now:
            raise SimulationError(
                f"attempt to move the virtual clock backwards: {t!r} < {self.now!r}"
            )
        self.now = t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now!r})"
