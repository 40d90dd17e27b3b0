"""Integration tests for the S1-S5 experiment functions (micro scale:
quadratic-speed problems would be ideal, but the experiments are wired
to the MLP/CNN workloads, so we use a miniature profile and few
algorithms/repeats to keep this fast)."""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.harness.config import Workloads, get_profile
from repro.harness.experiments import (
    TABLE_I,
    render_table_i,
    s1_scalability,
    s1_stepsize,
    s2_high_precision,
    s3_cnn,
    s4_high_parallelism,
    s5_memory,
)
from repro.harness.runner import run_once
from repro.identity import run_key, simulation_fingerprint, workload_key
from repro.service import ExperimentService


@pytest.fixture(scope="module")
def micro_workloads():
    from repro.harness.config import Profile, Workloads

    profile = Profile(
        name="quick",
        n_train=512,
        n_eval=128,
        batch_size=64,
        cnn_batch_size=32,
        repeats=1,
        thread_counts=(1, 4),
        high_parallelism=(4,),
        max_updates=400,
        max_virtual_time=20.0,
        max_wall_seconds=20.0,
        step_sizes=(0.02, 0.05),
        mlp_epsilons=(0.75, 0.5),
        cnn_epsilons=(0.75, 0.5),
        default_eta=0.02,
    )
    return Workloads(profile)


class TestS1Scalability:
    def test_produces_boxes_and_text(self, micro_workloads):
        res = s1_scalability(
            micro_workloads, algorithms=("SEQ", "LSH_ps0"), thread_counts=(1, 4)
        )
        assert "Fig 3" in res.text
        assert any("LSH_ps0/m=4" in k for k in res.data["boxes"])
        assert len(res.runs) == 3  # SEQ@1 + LSH@1 + LSH@4

    def test_parallel_beats_sequential(self, micro_workloads):
        res = s1_scalability(
            micro_workloads, algorithms=("SEQ", "LSH_psinf"), thread_counts=(4,)
        )
        seq = res.data["boxes"]["SEQ/m=1"]
        par = res.data["boxes"]["LSH_psinf/m=4"]
        assert seq and par
        assert np.median(par) < np.median(seq)


class TestS1Stepsize:
    def test_sweeps_etas(self, micro_workloads):
        res = s1_stepsize(
            micro_workloads, algorithms=("ASYNC",), etas=(0.02, 0.05), m=4, repeats=1
        )
        assert set(res.data["boxes"]) == {"ASYNC/eta=0.02", "ASYNC/eta=0.05"}
        assert "statistical efficiency" in res.text


class TestS2S3:
    def test_s2_structure(self, micro_workloads):
        res = s2_high_precision(
            micro_workloads, m=4, algorithms=("ASYNC", "LSH_ps0"), repeats=1
        )
        assert 0.5 in res.data["per_eps"]
        assert "ASYNC" in res.data["curves"]
        assert res.data["staleness"]["LSH_ps0"].size > 0
        assert "Staleness distribution" in res.text

    def test_s3_runs_cnn(self, micro_workloads):
        res = s3_cnn(micro_workloads, m=2, algorithms=("LSH_ps0",), repeats=1)
        assert res.runs[0].config.algorithm == "LSH_ps0"
        assert "CNN" in res.text


class TestS5Memory:
    def test_memory_table(self, micro_workloads):
        res = s5_memory(
            micro_workloads, thread_counts=(4,), kinds=("mlp",),
            algorithms=("ASYNC", "LSH_psinf"), max_updates=60,
        )
        async_stats = res.data[("mlp", 4, "ASYNC")]
        lsh_stats = res.data[("mlp", 4, "LSH_psinf")]
        assert async_stats["peak_count"] == 2 * 4 + 1
        assert lsh_stats["peak_count"] <= 3 * 4 + 1
        assert "memory consumption" in res.text


class _RecordingService:
    """Stand-in for the experiment service: records what each ``map``
    is handed and runs nothing (the renderers accept an empty batch)."""

    def __init__(self):
        self.calls = []

    def map(self, problem, cost, configs):
        self.calls.append((problem, cost, list(configs)))
        return []


def _declared(step, workloads, **kwargs):
    """The ``(problem, cost, configs)`` batches ``step`` submits, in order."""
    recorder = _RecordingService()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # statistics of no runs
        step(workloads, service=recorder, **kwargs)
    return recorder.calls


#: step -> (function, ``map`` calls, sha256(repr(every submitted config,
#: in order)) per profile). The hashes were computed on the tree before
#: the steps were declared as grids (three hand-written expanders, S4 /
#: S5 mapping per cell): a change here changes run keys, task ids and
#: every cache / journal address of the paper's evaluation.
STEP_PINS = {
    "s1": (s1_scalability, 1, {
        "quick": "aaf2e82766c96a932e7a649d4ccaecdc0b10ca6bd374753fd2c2183cebdda37c",
        "paper": "664a6ba483988b49e6e9ffc8c8fb0e827c21cc5a531bfaa0963a18e02119040e",
    }),
    "s1-eta": (s1_stepsize, 1, {
        "quick": "6639e28bcef07575b10eee8c67dd964e6da30c7b6d34eb0069f6acb117114524",
        "paper": "89ffb145777d473141cb0a55aa41eea81e9294ef61666446a5f753d59e8e9fca",
    }),
    "s2": (s2_high_precision, 1, {
        "quick": "3134007097af1868af1d8492d2b6e0d20bc68bf729910506ae58a4d7838fa613",
        "paper": "025aeaa2fc2cc0231b7ea772e1854d6d8dd2402b1d120a63a3021370111d32d6",
    }),
    "s3": (s3_cnn, 1, {
        "quick": "9271fc0cf4b1f62647788cc4e382a523170c2893e2a88dad8becf85acc890cd9",
        "paper": "d7c2daa2d3671c9eec5c18e7ea79c74c0471a3167a6ae6e959d9347b24d4689b",
    }),
    "s4": (s4_high_parallelism, 1, {
        "quick": "5e3ed6bf34abe8365852f764fbaa64fa68995bc85a777adaf56cb3cfcacf0de0",
        "paper": "e326a7319741cd47e759dd556813fa657150fdb6e19ecf13df05b971b7faf696",
    }),
    "s5": (s5_memory, 2, {
        "quick": "00ac7c15890e88cf05b241ef33eab5b12ae785f40231c0a7e797caa6ae98a55f",
        "paper": "18dd349d6ed13364e54b4c9a747675a5c99a1646f87d608af9e77d7d8472861c",
    }),
}


class TestDeclaredSweeps:
    @pytest.mark.parametrize("profile_name", ["quick", "paper"])
    @pytest.mark.parametrize("step", list(STEP_PINS))
    def test_submitted_configs_pinned(self, step, profile_name, monkeypatch):
        fn, n_maps, pins = STEP_PINS[step]
        workloads = Workloads(get_profile(profile_name))
        # No corpus is generated: a workload is named by its kind.
        monkeypatch.setattr(workloads, "problem", lambda kind: kind)
        monkeypatch.setattr(workloads, "cost", lambda kind: kind)
        calls = _declared(fn, workloads)
        assert len(calls) == n_maps
        configs = [config for *_, batch in calls for config in batch]
        assert hashlib.sha256(repr(configs).encode()).hexdigest() == pins[profile_name]

    @pytest.mark.parametrize("step, kwargs", [
        (s4_high_parallelism, dict(thread_counts=(2, 4), algorithms=("ASYNC", "LSH_ps0"))),
        (s5_memory, dict(thread_counts=(2, 4), algorithms=("ASYNC", "LSH_psinf"),
                         max_updates=60)),
    ])
    def test_durable_session_is_the_declaration(self, step, kwargs, micro_workloads, tmp_path):
        declared = _declared(step, micro_workloads, **kwargs)
        ticks = []
        with ExperimentService(
            tmp_path / "run", workers=1, replicas=2,
            progress=lambda done, total, label: ticks.append((done, total)),
        ) as service:
            result = step(micro_workloads, service=service, **kwargs)
            summary = service.summary()
        expected_keys, expected_prints = [], []
        for problem, cost, configs in declared:
            wkey = workload_key(problem, cost)
            expected_keys += [run_key(wkey, config) for config in configs]
            expected_prints += [
                simulation_fingerprint(run_once(problem, cost, config)) for config in configs
            ]
        assert summary["run_keys"] == expected_keys
        assert [simulation_fingerprint(r) for r in result.runs] == expected_prints
        # One heartbeat count per map: ``done`` climbs to that batch's
        # ``total`` and only then starts over.
        batches = []
        for done, total in ticks:
            if not batches or done <= batches[-1][-1][0]:
                batches.append([])
            batches[-1].append((done, total))
        assert [batch[-1] for batch in batches] == [
            (len(configs), len(configs)) for *_, configs in declared
        ]
        for batch in batches:
            assert len({total for _, total in batch}) == 1
            assert [done for done, _ in batch] == sorted(done for done, _ in batch)


class TestTableI:
    def test_covers_all_steps(self):
        assert [row["step"] for row in TABLE_I] == ["S1", "S2", "S3", "S4", "S5"]

    def test_render(self):
        text = render_table_i()
        assert "Table I" in text and "s3_cnn" in text
