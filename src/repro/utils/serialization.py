"""Pretty-printed JSON archives of run and experiment results.

``repro run --json`` and :func:`repro.harness.grid.archive` archive
their outcomes as one indented JSON document (a list of flat rows) so
reports can be regenerated and compared across machines without
re-running. The row codec itself (NumPy arrays, NaN/inf sentinels, the
flat ``RunResult`` shape) is :mod:`repro.identity`'s; the one-line-per-
run JSONL form lives in :mod:`repro.telemetry.jsonl`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.identity import decode, encode


def result_to_dict(result) -> dict:
    """Flatten a :class:`repro.harness.runner.RunResult` (or any
    dataclass) into JSON-ready primitives."""
    return encode(result)


def save_results(results, path: str | Path) -> Path:
    """Write a list of results (or one) as pretty-printed JSON."""
    path = Path(path)
    payload = encode(results if isinstance(results, list) else [results])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_results(path: str | Path) -> list[dict]:
    """Read back what :func:`save_results` wrote (as plain dicts)."""
    return decode(json.loads(Path(path).read_text()))
