"""CLI experiment/figures commands, run against a miniature profile."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.harness import config as config_module
from repro.harness.config import Profile


@pytest.fixture
def micro_quick(monkeypatch):
    """Shrink the 'quick' profile so CLI experiment tests run in seconds."""
    micro = Profile(
        name="quick",
        n_train=512,
        n_eval=128,
        batch_size=64,
        cnn_batch_size=32,
        repeats=1,
        thread_counts=(1, 4),
        high_parallelism=(4,),
        max_updates=300,
        max_virtual_time=15.0,
        # No host-time cap: a run the host clock stops is not cacheable,
        # so a finite one makes the cache tests depend on host speed.
        max_wall_seconds=float("inf"),
        step_sizes=(0.02,),
        mlp_epsilons=(0.75, 0.5),
        cnn_epsilons=(0.75, 0.5),
    )
    monkeypatch.setitem(config_module._PROFILES, "quick", micro)
    return micro


class TestExperimentCommand:
    def test_s1_runs_and_prints(self, micro_quick, capsys):
        code = main(["experiment", "s1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig 3" in out and "S1/Fig3" in out

    def test_s5_runs(self, micro_quick, capsys):
        code = main(["experiment", "s5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "memory consumption" in out

    def test_unknown_step_rejected(self, micro_quick):
        with pytest.raises(SystemExit):
            main(["experiment", "s9"])

    def test_cache_dir_serves_second_run(self, micro_quick, capsys, tmp_path):
        cache_dir = str(tmp_path / "runs")
        assert main(["experiment", "s5", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "cache:" in cold and " 0 hits" in cold
        assert main(["experiment", "s5", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert "cache:" in warm and " 0 hits" not in warm
        assert " 0 misse" in warm  # fully served from cache

    def test_no_cache_disables_env_dir(self, micro_quick, capsys, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(["experiment", "s5", "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_service_summary_line(self, micro_quick, capsys):
        assert main(["experiment", "s5"]) == 0
        out = capsys.readouterr().out
        assert "service:" in out and "executed" in out and "resumed" in out

    def test_cache_line_reports_task_traffic(self, micro_quick, capsys,
                                             tmp_path):
        cache_dir = str(tmp_path / "runs")
        assert main(["experiment", "s5", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hits /" in cold and " executed / 0 from cache" in cold
        assert main(["experiment", "s5", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert " / 0 misses / 0 bypassed" in warm and " 0 executed / " in warm


class TestExperimentService:
    def test_run_dir_writes_artifacts(self, micro_quick, capsys, tmp_path):
        run_dir = tmp_path / "svc"
        assert main(["experiment", "s5", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run dir:" in out and "fingerprint" in out
        for name in ("manifest.json", "summary.json", "service_timeline.json"):
            assert (run_dir / name).exists(), name
        assert any(run_dir.glob("results-*.jsonl"))
        assert not (run_dir / "merged.jsonl").exists()
        assert not (run_dir / "queue.jsonl").exists()

    def test_resume_completed_run_executes_nothing(self, micro_quick, capsys,
                                                   tmp_path):
        import json

        run_dir = tmp_path / "svc"
        assert main(["experiment", "s5", "--run-dir", str(run_dir)]) == 0
        first = json.loads((run_dir / "summary.json").read_text())
        capsys.readouterr()
        # --resume needs no step: it comes from the manifest.
        assert main(["experiment", "--resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "memory consumption" in out  # manifest resolved s5
        second = json.loads((run_dir / "summary.json").read_text())
        assert second["merged_fingerprint"] == first["merged_fingerprint"]
        assert second["service"]["tasks_executed"] == 0
        assert second["service"]["tasks_from_journal"] > 0

    def test_resume_wrong_step_refused(self, micro_quick, capsys, tmp_path):
        run_dir = tmp_path / "svc"
        assert main(["experiment", "s5", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="refusing to resume"):
            main(["experiment", "s1", "--resume", str(run_dir)])

    def test_resume_missing_manifest_errors(self, micro_quick, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no manifest.json"):
            main(["experiment", "--resume", str(tmp_path)])

    def test_step_required_without_resume(self, micro_quick, capsys):
        assert main(["experiment"]) == 2
        assert "required unless --resume" in capsys.readouterr().err

    def test_trace_service_exports_queue_timeline(self, micro_quick, capsys,
                                                  tmp_path):
        run_dir = tmp_path / "svc"
        assert main(["experiment", "s5", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "queue_trace.json"
        assert main(["trace", "--service", str(run_dir),
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "service run" in out
        assert out_path.exists()


class TestAnalyzeCacheLine:
    def test_analyze_reports_task_traffic(self, micro_quick, capsys,
                                          tmp_path):
        cache_dir = str(tmp_path / "runs")
        args = ["analyze", "--algorithm", "LSH_ps1", "--m", "2",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hits / 1 misses" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cache: 1 hits / 0 misses" in warm


class TestRunCommandDLWorkload:
    def test_mlp_run(self, micro_quick, capsys):
        code = main(["run", "--algorithm", "LSH_ps0", "--m", "4",
                     "--workload", "mlp", "--target-eps", "0.75"])
        out = capsys.readouterr().out
        assert code == 0
        assert "final accuracy" in out


class TestCalibrateCommand:
    def test_calibrate_prints_both_architectures(self, micro_quick, capsys):
        code = main(["calibrate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MLP" in out and "CNN" in out and "Tc/Tu" in out
