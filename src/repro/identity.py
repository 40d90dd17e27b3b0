"""Run identity and the row format: what a run row is, and every key
derived from one.

Every layer above the simulator asks "is this the same run?" — the cache
to skip it, the queue to resume it, the store to de-duplicate it, the
CI gates to compare it across hosts. This module is the only code that
answers: it owns the row codec, the schema gate, the declaration of
which fields are host-volatile, and all nine derived keys. Everything
else imports from here (the old import paths — ``repro.harness.cache``,
``repro.service``, ``repro.store``, ``repro.telemetry``,
``repro.observe.provenance`` — are plain re-bindings of these names).

The row
    A run is archived as one **flat row**: ``config`` / ``status`` /
    ``report`` / ``schema_version`` next to the :class:`~repro.telemetry.
    metrics.RunMetrics` keys. :func:`encode` turns a ``RunResult`` (or a
    decoded row, idempotently) into JSON-ready primitives, tunnelling
    NumPy arrays as ``{"__ndarray__": [...], "dtype": ...}`` and
    NaN/inf as ``{"__float__": "nan"|"inf"|"-inf"}``; :func:`decode` is
    the inverse. :func:`canonical` (sorted keys, compact) is the one
    text form: every ``results-<wkey>.jsonl`` line, cache entry and
    ``row_json`` column holds it, and every digest below hashes it. A
    canonical line parses back to the encoded row
    (``canonical(json.loads(line)) == line``), which is what lets a
    line written once serve as journal row, resumed row and
    fingerprint input (:func:`line_fingerprint`).

Reading
    :func:`row_from_line` (:func:`payload_from_line`, then
    :func:`decode_row`) followed by :func:`migrate_row_strict` is the
    tolerant-reader contract shared by ``read_jsonl``, ``RunCache.get``,
    ``Measurer.load_workload`` and the store's ingester: anything that
    is not a readable row of *the* schema (:data:`SCHEMA_VERSION`,
    nothing older and nothing newer: no migration exists) raises
    :class:`~repro.errors.ConfigurationError` (its subclass
    :class:`~repro.errors.SchemaVersionError` for the version gate) and
    nothing else, so each reader turns exactly one exception family into
    its warned skip. With no migration a parsed line *is* the encoded
    row, so every reader takes its keys from the one parse it makes and
    never calls :func:`encode`: the cache and the journal replay keep
    the payload and fingerprint it (:func:`encoded_fingerprint`), and
    the ingester gates the payload, then either finds the line's text,
    byte for byte, as a stored ``row_json`` (a duplicate: equal
    canonical text is equal content) or serialises it once for its
    digest (:func:`encoded_row_digest`), and decodes only a row it
    inserts.

Volatile fields
    :data:`WALL_FIELDS` are host clocks that jitter between two
    executions of the same run on the same tree; :data:`HOST_FIELDS`
    adds the facts that differ between *hosts or execution modes*.
    The identity contract (serial == cohort == pooled == cached ==
    resumed, :func:`simulation_fingerprint`) excepts all of
    ``HOST_FIELDS``; the store's dedup address (:func:`row_digest`)
    excepts only ``WALL_FIELDS``, because a sample from another tree or
    host (different ``provenance``) is a new sample, not a duplicate.

The nine keys
    :func:`config_hash`, :func:`problem_fingerprint`,
    :func:`workload_key`, :func:`cache_key`, :func:`run_key`,
    :func:`task_id_for`, :func:`simulation_fingerprint`,
    :func:`merged_fingerprint`, :func:`row_digest`. Existing caches, run
    directories and SQLite files are addressed by them, so a formula
    moves only for a written reason: ``tests/test_identity.py`` pins
    each to a golden value, and ``docs/service.md`` ("Run identity and
    the row format") tabulates what each includes, excludes and is used
    for. A workload's part is what its problem declares
    (``Problem.identity()``), never what happens to hang on the object.

Nothing here imports from ``repro`` at module level except
:mod:`repro.errors` (``repro.telemetry`` imports this module while it is
itself being imported); the result classes are imported where a result
is rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import weakref
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, SchemaVersionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.config import RunConfig
    from repro.harness.runner import RunResult
    from repro.sim.cost import CostModel

__all__ = [
    "HOST_FIELDS",
    "SCHEMA_VERSION",
    "WALL_FIELDS",
    "archived_config_hash",
    "cache_key",
    "canonical",
    "config_hash",
    "content_digest",
    "decode",
    "decode_row",
    "encode",
    "encoded_fingerprint",
    "encoded_row_digest",
    "line_fingerprint",
    "merged_fingerprint",
    "migrate_row_strict",
    "payload_from_line",
    "problem_fingerprint",
    "result_from_row",
    "result_to_line",
    "row_config_hash",
    "row_digest",
    "row_from_line",
    "run_key",
    "simulation_fingerprint",
    "task_id_for",
    "workload_key",
]

#: The one row layout every reader accepts and every writer emits
#: (:mod:`repro.telemetry.metrics` documents the keys). Bump on any
#: incompatible change; rows of the previous layout then become foreign
#: input.
SCHEMA_VERSION = 3

#: Host clocks: differ between two executions of the same run anywhere.
WALL_FIELDS = ("wall_seconds", "wall_phases", "profile")

#: Everything that describes the *execution* rather than the simulation:
#: the clocks, the provenance manifest (tree, host) and the training
#: kernel's fallback tally (execution mode).
HOST_FIELDS = WALL_FIELDS + ("provenance", "kernel_fallbacks")


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def encode(value: Any) -> Any:
    """``value`` as JSON-ready primitives (idempotent on encoded input)."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        if math.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    # RunResult-shaped objects (duck-typed to avoid a harness import):
    # flatten the RunMetrics mapping into the top level, so the JSON
    # keeps the flat pre-telemetry shape ("staleness_values" etc. next
    # to "config"/"status") that archived payloads and reports expect.
    metrics = getattr(value, "metrics", None)
    if (
        metrics is not None
        and hasattr(metrics, "schema_version")
        and isinstance(getattr(metrics, "values", None), dict)
        and hasattr(value, "config")
        and hasattr(value, "report")
    ):
        flat = {
            "config": encode(value.config),
            "status": encode(value.status),
            "report": encode(value.report),
            "schema_version": metrics.schema_version,
        }
        flat.update({str(k): encode(v) for k, v in metrics.values.items()})
        return flat
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if hasattr(value, "value") and value.__class__.__module__.startswith("repro"):
        return value.value  # enums (RunStatus)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def decode(value: Any) -> Any:
    """Restore arrays and NaN/inf in parsed JSON (inverse of
    :func:`encode`). A sentinel that does not hold what it claims raises
    whatever NumPy / ``float`` raise (``TypeError``, ``ValueError``,
    ``OverflowError``); :func:`row_from_line` is the reader that turns
    those into a skip."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value.get("dtype", "float64"))
        if "__float__" in value:
            return float(value["__float__"])
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def canonical(encoded: Any) -> str:
    """The one text form of an encoded value: sorted keys, compact."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def content_digest(encoded: Any) -> str:
    """Hex sha256 of :func:`canonical`."""
    return hashlib.sha256(canonical(encoded).encode()).hexdigest()


def result_to_line(result) -> str:
    """One run (a ``RunResult`` or an already-flat row, decoded or not)
    as one canonical JSON line."""
    payload = encode(result)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    return canonical(payload)


def decode_row(payload: Any, *, where: str = "<row>") -> dict:
    """One parsed line (the encoded flat row) as a decoded flat row.

    Raises :class:`ConfigurationError` naming ``where`` for JSON that is
    not an object or a sentinel :func:`decode` cannot restore. This is
    the check on outside input for a reader that keeps the parsed
    payload (the store's ingester); the others go through
    :func:`row_from_line`."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{where}: not a JSON object")
    try:
        return decode(payload)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}: undecodable value ({exc})") from None


def payload_from_line(line: str, *, where: str = "<row>") -> Any:
    """Parse one archived line as it stands (for a row line: the
    encoded row). Raises :class:`ConfigurationError` naming ``where``
    for a torn or corrupt line. The parse of a reader that derives keys
    from the encoding as well as a result from the decoding."""
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: torn or corrupt JSON line ({exc})") from None


def row_from_line(line: str, *, where: str = "<row>") -> dict:
    """Parse one archived line into a decoded flat row.

    Raises :class:`ConfigurationError` naming ``where`` (``path:lineno``
    for file readers) for a torn or corrupt line and for everything
    :func:`decode_row` refuses. Follow with :func:`migrate_row_strict`:
    the pair accepts exactly the readable rows of the current schema."""
    return decode_row(payload_from_line(line, where=where), where=where)


# ----------------------------------------------------------------------
# Schema gate
# ----------------------------------------------------------------------
def migrate_row_strict(row: dict, *, where: str = "<row>") -> dict:
    """The version gate: ``schema_version`` must be the ``int`` (not a
    ``bool``) :data:`SCHEMA_VERSION`; anything else (older, newer,
    missing, or not a version at all) raises
    :class:`SchemaVersionError` naming ``where``. Returns ``row``
    untouched. Nothing is migrated; the name is the one
    ``bench/trace.py`` binds."""
    version = row.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{where}: schema_version {version!r} not supported "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return row


# ----------------------------------------------------------------------
# Row -> RunResult reconstruction
# ----------------------------------------------------------------------
_DTYPES_BY_REPR = {
    repr(t): t for t in (np.float16, np.float32, np.float64, np.longdouble)
}


def _config_from_dict(payload: dict) -> "RunConfig":
    from repro.harness.config import RunConfig

    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(RunConfig):
        if f.name not in payload:
            continue
        value = payload[f.name]
        if f.name == "epsilons":
            value = tuple(float(v) for v in value)
        elif f.name == "probes":
            value = tuple(str(v) for v in value)
        elif f.name == "dtype":
            if value not in _DTYPES_BY_REPR:
                raise ValueError(f"unknown archived dtype {value!r}")
            value = _DTYPES_BY_REPR[value]
        kwargs[f.name] = value
    return RunConfig(**kwargs)


def _report_from_dict(payload: dict):
    from repro.core.convergence import ConvergenceReport, RunStatus

    return ConvergenceReport(
        status=RunStatus(payload["status"]),
        initial_loss=float(payload["initial_loss"]),
        final_loss=float(payload["final_loss"]),
        threshold_times={
            float(eps): (float(t), int(n))
            for eps, (t, n) in payload["threshold_times"].items()
        },
        curve_t=[float(v) for v in payload["curve_t"]],
        curve_loss=[float(v) for v in payload["curve_loss"]],
        curve_updates=[int(v) for v in payload["curve_updates"]],
    )


def result_from_row(row: dict) -> "RunResult":
    """Rebuild a full :class:`RunResult` from a decoded flat row (the
    inverse of :func:`encode` on a result): bitwise-identical to
    recomputation on every simulation field."""
    from repro.core.convergence import RunStatus
    from repro.harness.runner import RunResult
    from repro.telemetry.metrics import RunMetrics

    values = {
        key: value
        for key, value in row.items()
        if key not in ("config", "status", "report", "schema_version")
    }
    # JSON turned these tuples into lists; the accessors unpack them.
    for key in ("memory_timeline", "retry_occupancy"):
        if isinstance(values.get(key), list):
            values[key] = tuple(values[key])
    return RunResult(
        config=_config_from_dict(row["config"]),
        status=RunStatus(row["status"]),
        report=_report_from_dict(row["report"]),
        metrics=RunMetrics(
            values=values, schema_version=row.get("schema_version", SCHEMA_VERSION)
        ),
    )


# ----------------------------------------------------------------------
# Keys of a run that has not executed yet: config, workload, task
# ----------------------------------------------------------------------
def config_hash(config) -> str:
    """Stable short hash of a frozen config's canonical ``repr``
    (algorithm, m, eta, seed, probe set, budgets): recorded in every
    provenance manifest, the second half of :func:`run_key`."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def archived_config_hash(config: dict) -> str:
    """:func:`config_hash` of a decoded row's ``config`` mapping, for rows
    whose provenance recorded none: rebuild the frozen ``RunConfig`` and
    hash that; a config that no longer reconstructs falls back to a
    digest of the mapping itself."""
    try:
        return config_hash(_config_from_dict(config))
    except Exception:
        return content_digest(config)[:16]


def row_config_hash(row: dict) -> str:
    """:func:`config_hash` of the run a decoded row archives: the one its
    provenance recorded, else :func:`archived_config_hash` of its
    ``config``. A run dir states each row once, in
    ``results-<wkey>.jsonl``; the file name gives the first half of the
    row's :func:`run_key` and this the second."""
    provenance = row.get("provenance")
    recorded = provenance.get("config_hash") if isinstance(provenance, dict) else None
    return recorded or archived_config_hash(row.get("config"))


_FINGERPRINT_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # problem -> digest


def _hash_item(h, item) -> None:
    """One element of a declared identity, length-prefixed so that no
    two different tuples share a byte stream."""
    if isinstance(item, np.ndarray):
        h.update(f"nd{item.dtype.str}{item.shape}:".encode())
        h.update(np.ascontiguousarray(item))
    elif isinstance(item, tuple):
        h.update(f"tuple{len(item)}:".encode())
        for inner in item:
            _hash_item(h, inner)
    elif item is None or type(item) in (bool, int, float, str):
        text = repr(item)
        h.update(f"{type(item).__name__}{len(text)}:{text}".encode())
    else:
        raise ConfigurationError(
            f"identity() may hold arrays, tuples and bool/int/float/str/None, "
            f"not {type(item).__qualname__}"
        )


def _identity_digest(problem: "Problem") -> str:
    """sha256 of ``problem.identity()``, computed afresh (what another
    process or an unpickled copy computes)."""
    h = hashlib.sha256()
    _hash_item(h, tuple(problem.identity()))
    return h.hexdigest()


def problem_fingerprint(problem: "Problem") -> str:
    """The content hash of a workload: sha256 of what the problem
    declares in ``identity()`` (class name, scalars, the exact bytes of
    its arrays), memoised per live object so a 60k-image corpus is
    hashed once per sweep, not once per run. A problem that declares no
    identity raises :class:`ConfigurationError` naming its class."""
    digest = _FINGERPRINT_MEMO.get(problem)
    if digest is None:
        digest = _FINGERPRINT_MEMO[problem] = _identity_digest(problem)
    return digest


def workload_key(problem: "Problem", cost: "CostModel") -> str:
    """Content address of a (problem, cost) pair, 16 hex chars: the
    first half of :func:`run_key` and the ``<wkey>`` in a run dir's
    ``results-<wkey>.jsonl``. Memoized through
    :func:`problem_fingerprint`."""
    material = f"problem={problem_fingerprint(problem)}|cost={cost!r}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def cache_key(problem: "Problem", cost: "CostModel", config: "RunConfig") -> str:
    """The run cache's content address of one run (hex sha256): the
    material of :func:`run_key` plus :data:`SCHEMA_VERSION`, so a schema
    bump invalidates every entry."""
    material = "|".join((
        f"schema={SCHEMA_VERSION}",
        f"config={config_hash(config)}",
        f"problem={problem_fingerprint(problem)}",
        f"cost={cost!r}",
    ))
    return hashlib.sha256(material.encode()).hexdigest()


def run_key(wkey: str, config: "RunConfig") -> str:
    """The service-wide identity of one run: workload + config hash.
    (:func:`config_hash` alone is not one: S5 sweeps the *same* configs
    against both the MLP and the CNN.)"""
    return f"{wkey}:{config_hash(config)}"


def task_id_for(run_keys: Sequence[str]) -> str:
    """The queue's id of one cohort box: hash of its ordered run keys,
    so re-expanding an identical sweep after a crash reproduces it."""
    digest = hashlib.sha256("|".join(run_keys).encode()).hexdigest()[:16]
    return f"t-{digest}"


# ----------------------------------------------------------------------
# Keys of a run that has executed: fingerprints and the dedup address
# ----------------------------------------------------------------------
def _digest_without(encoded: dict, excluded: tuple) -> str:
    return content_digest({k: v for k, v in encoded.items() if k not in excluded})


def simulation_fingerprint(result) -> str:
    """Canonical hash of a run's *simulation* outputs: every row field
    except :data:`HOST_FIELDS`. Two results (``RunResult``\\ s or flat
    rows) are interchangeable under the identity contract iff these
    match."""
    return _digest_without(encode(result), HOST_FIELDS)


def encoded_fingerprint(encoded: dict) -> str:
    """:func:`simulation_fingerprint` of an already-encoded row (a parsed
    row line): one serialisation, no encode."""
    return _digest_without(encoded, HOST_FIELDS)


def line_fingerprint(line: str) -> str:
    """:func:`simulation_fingerprint` of the run a
    :func:`result_to_line` line holds; the parsed line *is* the encoded
    row, so nothing is encoded again."""
    return encoded_fingerprint(json.loads(line))


def merged_fingerprint(fingerprints: Iterable[str]) -> str:
    """sha256 over per-run simulation fingerprints in submission order:
    the identity of the *science* one service run produced (the resume
    gate and the benchmark's ``sim_fingerprint``)."""
    h = hashlib.sha256()
    for fingerprint in fingerprints:
        h.update(fingerprint.encode())
    return h.hexdigest()


def row_digest(row: dict) -> str:
    """The result store's content address of one run row (decoded or
    encoded): every field except :data:`WALL_FIELDS`, so a re-run on the
    same tree and host de-duplicates while the same config from another
    tree or host (different ``provenance``) is a new sample."""
    return encoded_row_digest(encode(row))


def encoded_row_digest(encoded: dict) -> str:
    """:func:`row_digest` of an already-encoded row."""
    return _digest_without(encoded, WALL_FIELDS)

