"""The benchmark's own tests (not part of tier-1's ``testpaths``):

    PYTHONPATH=src python -m pytest bench/tests -q

One smoke-sized traced run of all four workloads feeds most of them.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from bench import compare  # noqa: E402
from bench.host import Calibrator, FsyncTimer, cpu_jiffies, guest_seconds, stolen_share  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.trace import ROOT, TARGETS, Tracer  # noqa: E402
from bench.workloads import WHY, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``python -m bench --smoke --trace``: stdout and the result file."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = _bench("--smoke", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text()), out


@pytest.fixture(scope="module")
def declared():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogue(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == WHY
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert len(declared["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])


def test_every_declared_metric_is_printed_with_a_unit(smoke, declared):
    stdout, document, _ = smoke
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        # "  <name>   <value> <unit>" once per workload
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b"
        printed = re.findall(pattern, stdout, flags=re.MULTILINE)
        assert len(printed) == len(WORKLOADS), metric["name"]
    for name in WORKLOADS:
        report = document["workloads"][name]
        assert report["ops_failed"] == 0, report["failures"]
        assert report["ops_attempted"] >= 1
        assert set(report["per_layer"]) == {m.name for m in PER_LAYER}
        assert set(report["end_to_end"]) == {m.name for m in END_TO_END}
        assert all(row["median"] > 0 for row in report["end_to_end"].values())


def test_self_times_and_unattributed_sum_to_the_timed_region(smoke):
    _, document, _ = smoke
    for name in WORKLOADS:
        trace = document["workloads"][name]["trace"]
        self_total = sum(row["self_s"] for row in trace["aggregates"].values())
        assert self_total == pytest.approx(trace["timed_region_s"], rel=1e-9)
        assert trace["aggregates"][ROOT]["total_s"] == pytest.approx(trace["timed_region_s"])
        assert sum(trace["layer_self_s"].values()) == pytest.approx(trace["timed_region_s"])
        unattributed = document["workloads"][name]["per_layer"]["bench.unattributed_s"]["value"]
        assert unattributed == trace["aggregates"][ROOT]["self_s"]


def test_traced_child_simulated_the_same_result(smoke):
    _, document, _ = smoke
    for name in WORKLOADS:
        report = document["workloads"][name]
        assert not any("simulated a different result" in f for f in report["failures"])
        assert report["per_layer"]["core.updates"]["value"] == report["sim_updates"]


def _raw_attribute(where: str, attribute: str):
    import importlib

    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return vars(owner)[attribute]


def test_uninstall_restores_every_wrapped_attribute():
    before = [_raw_attribute(where, attribute) for _, where, attribute, *_ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        during = [_raw_attribute(where, attribute) for _, where, attribute, *_ in TARGETS]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    after = [_raw_attribute(where, attribute) for _, where, attribute, *_ in TARGETS]
    assert all(a is b for a, b in zip(before, after))
    assert not tracer.installed


def test_nested_spans_account_self_time_exactly():
    tracer = Tracer()
    with tracer.span(ROOT) as root:
        with tracer.span("a.outer"):
            with tracer.span("a.inner"):
                pass
            with tracer.span("b.leaf"):
                pass
    total = sum(self_s for _, _, self_s in tracer.aggregates.values())
    assert total == pytest.approx(root.duration, rel=1e-9)
    layers = tracer.layer_self_times()
    assert set(layers) == {"bench", "a", "b"}
    parents = {name: parent for _, name, _, _, parent in tracer.spans}
    ids = {name: span_id for span_id, name, _, _, _ in tracer.spans}
    assert parents["a.inner"] == ids["a.outer"] and parents[ROOT] == -1


def test_fsync_timer_clocks_every_call_and_restores_the_original(tmp_path):
    import os

    original = os.fsync
    timer = FsyncTimer()
    timer.install()
    try:
        with open(tmp_path / "journal", "w") as journal:
            journal.write("x")
            journal.flush()
            os.fsync(journal.fileno())
            os.fsync(journal.fileno())
    finally:
        timer.uninstall()
    assert os.fsync is original
    wait_s, calls = timer.take()
    assert calls == 2 and wait_s > 0
    assert timer.take() == (0.0, 0)


def test_guest_seconds_takes_out_fsync_waits_then_the_stolen_share():
    # 10 s of wall, 2 s of it waiting for the disk, a quarter of the rest stolen
    assert stolen_share((100, 10), (400, 110)) == pytest.approx(0.25)
    assert guest_seconds(10.0, 2.0, 0.25) == pytest.approx(6.0)
    assert stolen_share((100, 10), (100, 10)) == 0.0  # nothing ran: nothing to correct
    busy, stolen = cpu_jiffies()
    assert busy >= 0 and stolen >= 0


def test_calibrator_slowdown_is_mean_chunk_over_fastest_chunk():
    calibrator = Calibrator()
    bursts = [calibrator.burst(0.02), calibrator.burst(0.02)]
    assert all(seconds > 0 and chunks >= 1 for burst in bursts for seconds, chunks in burst)
    assert 1.0 <= calibrator.slowdown(bursts) < 100.0


def test_gated_times_are_wall_less_fsync_waits_and_steal(smoke):
    _, document, _ = smoke
    for name in WORKLOADS:
        report = document["workloads"][name]
        layers = report["per_layer"]
        assert layers["bench.fsync_calls"]["value"] > 0  # every workload is durable
        assert 0.0 <= layers["bench.steal_share"]["value"] < 1.0
        assert layers["bench.host_slowdown"]["value"] >= 1.0
        assert (report["end_to_end"]["pipeline_s"]["median"]
                <= layers["bench.pass_wall_s"]["value"])
        for row in report["warmup"] + report["passes"]:
            assert row["pipeline_s"] <= row["guest_s"] <= row["pipeline_wall_s"]


def test_compare_ok_against_itself_and_regressed_on_a_doctored_copy(smoke, tmp_path, capsys):
    _, document, path = smoke
    assert compare.main([str(path), str(path)]) == 0
    assert " regressed" in capsys.readouterr().out  # the summary line counts them: 0
    rows, changes, more_failures = compare.compare(document, document)
    assert {row["verdict"] for row in rows} == {"ok"} and not changes and not more_failures
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)

    doctored = copy.deepcopy(document)
    wall = doctored["workloads"]["quad_contention"]["end_to_end"]["pipeline_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 1.5
    wall["values"] = [value * 1.5 for value in wall["values"]]
    doctored["workloads"]["quad_contention"]["sim_fingerprint"] = "0" * 64
    slow = tmp_path / "doctored.json"
    slow.write_text(json.dumps(doctored))
    assert compare.main([str(path), str(slow)]) == 1
    printed = capsys.readouterr().out
    assert re.search(r"quad_contention\s+pipeline_s.*regressed", printed)
    assert "sim_fingerprint changed" in printed


def test_compare_reports_unresolved_when_noisy_runs_overlap():
    metric = next(m for m in END_TO_END if m.name == "pipeline_s")
    base = {"median": 10.0, "q1": 8.0, "q3": 12.0, "values": [8.0, 10.0, 12.0]}
    other = {"median": 11.5, "q1": 9.0, "q3": 13.0, "values": [9.0, 11.5, 13.0]}
    assert compare.verdict(metric, base, other)[0] == "unresolved"
    apart = {"median": 20.0, "q1": 17.0, "q3": 23.0, "values": [17.0, 20.0, 23.0]}
    assert compare.verdict(metric, base, apart)[0] == "regressed"


def test_contract_line_has_exactly_the_declared_metrics(declared):
    done = _bench("--workload", "quad_contention", "--smoke", "--seed", "3",
                  "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO_ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _bench("--workload", "quad_contention", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
