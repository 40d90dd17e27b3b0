"""Live progress heartbeats for long experiment sweeps.

A paper-profile sweep fans hundreds of runs out over a process pool and
then goes silent for minutes — indistinguishable, from the terminal,
from a hung pool. :class:`ProgressReporter` is the harness's heartbeat:
an :class:`repro.service.experiment.ExperimentService` constructed with
a ``progress`` callback invokes it as ``progress(done, total, label)``
after every completed cohort box of every batch it maps, and the
reporter renders those ticks either as

* a single in-place updating status line (``\\r``) when the output
  stream is a TTY, or
* one plain timestamped log line every ``min_interval`` seconds (and
  always on the final tick) when it is not — so CI logs and piped
  output get a bounded number of lines instead of a carriage-return
  soup.

The callback contract is deliberately tiny (any ``(done, total, label)``
callable works; tests pass a list-appender) and the reporter is pure
stdout cosmetics: it never touches run results, so sweeps remain
bitwise-deterministic with or without it.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

__all__ = ["ProgressCallback", "ProgressReporter"]

#: The callback shape the service invokes: ``progress(done, total, label)``.
ProgressCallback = Callable[[int, int, str], None]


class ProgressReporter:
    """Render ``(done, total, label)`` ticks as a terminal heartbeat.

    Parameters
    ----------
    stream:
        Output stream; defaults to ``sys.stderr`` so progress noise
        never mixes with piped report/JSONL output on stdout.
    min_interval:
        Minimum seconds between repaints. TTY repaints are cheap but
        non-TTY streams emit one *line* per repaint, so the default
        (2 s) bounds a long sweep's log to a few dozen heartbeats.
    bar_width:
        Width of the TTY progress bar in characters.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        min_interval: float = 2.0,
        bar_width: int = 24,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self.bar_width = int(bar_width)
        self._start = time.monotonic()
        self._last_paint = float("-inf")
        self._painted = False
        try:
            self._is_tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._is_tty = False

    # ------------------------------------------------------------------
    def __call__(self, done: int, total: int, label: str = "") -> None:
        """One tick. Repaints at most every ``min_interval`` seconds,
        except the final tick (``done >= total``), which always lands."""
        now = time.monotonic()
        final = done >= total
        if not final and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        elapsed = now - self._start
        if self._is_tty:
            self._paint_tty(done, total, label, elapsed, final)
        else:
            self._paint_line(done, total, label, elapsed)

    def close(self) -> None:
        """Terminate an in-place TTY status line with a newline."""
        if self._is_tty and self._painted:
            self.stream.write("\n")
            self.stream.flush()
            self._painted = False

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _eta(self, done: int, total: int, elapsed: float) -> str:
        if done <= 0 or done >= total:
            return ""
        remaining = elapsed * (total - done) / done
        return f" eta {remaining:.0f}s"

    def _paint_tty(
        self, done: int, total: int, label: str, elapsed: float, final: bool
    ) -> None:
        frac = done / total if total else 1.0
        filled = int(round(self.bar_width * min(frac, 1.0)))
        bar = "#" * filled + "-" * (self.bar_width - filled)
        suffix = f" {label}" if label else ""
        line = (
            f"\r[{bar}] {done}/{total} ({frac:.0%}) "
            f"{elapsed:.0f}s{self._eta(done, total, elapsed)}{suffix}"
        )
        # Pad over any longer previous paint, then rewind to line start.
        self.stream.write(f"{line:<79}")
        self.stream.flush()
        self._painted = True
        if final:
            self.close()

    def _paint_line(self, done: int, total: int, label: str, elapsed: float) -> None:
        suffix = f" {label}" if label else ""
        self.stream.write(
            f"progress: {done}/{total} runs {elapsed:.0f}s"
            f"{self._eta(done, total, elapsed)}{suffix}\n"
        )
        self.stream.flush()
