"""Tests for the command-line interface and result serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.utils.serialization import load_results, result_to_dict, save_results

from tests.store.conftest import sweep_jsonl, sweep_results  # noqa: F401


class TestCliRun:
    def test_run_quadratic_converges(self, capsys):
        code = main(["run", "--algorithm", "LSH_ps1", "--m", "4",
                     "--workload", "quadratic", "--target-eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "mean staleness" in out

    def test_run_seq(self, capsys):
        code = main(["run", "--algorithm", "SEQ", "--m", "1",
                     "--workload", "quadratic", "--target-eps", "0.1"])
        assert code == 0

    def test_run_exit_code_nonzero_on_failure(self, capsys):
        # An eta far too small cannot converge within the profile budget.
        code = main(["run", "--algorithm", "ASYNC", "--m", "2",
                     "--workload", "quadratic", "--eta", "1e-12",
                     "--target-eps", "0.1"])
        assert code == 1

    def test_run_archives_json(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        code = main(["run", "--algorithm", "HOG", "--m", "2",
                     "--workload", "quadratic", "--target-eps", "0.1",
                     "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload[0]["status"] == "converged"

    def test_unknown_algorithm_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "--algorithm", "NOPE", "--workload", "quadratic"])


class TestCliAnalyze:
    def test_analyze_prints_probe_sections(self, capsys):
        code = main(["analyze", "--algorithm", "LSH_ps1", "--m", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n*_gamma" in out
        assert "staleness decomposition" in out
        assert "per-phase virtual-time breakdown" in out
        assert "CAS contention" in out

    def test_analyze_jsonl_svg_and_reload(self, tmp_path, capsys):
        jsonl = tmp_path / "runs.jsonl"
        svg = tmp_path / "occ.svg"
        code = main(["analyze", "--algorithm", "LSH_ps1", "--m", "4",
                     "--seed", "1", "--jsonl", str(jsonl), "--svg", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")
        capsys.readouterr()
        # The archived run re-analyzes without re-running the simulation.
        code = main(["analyze", "--from-jsonl", str(jsonl)])
        out = capsys.readouterr().out
        assert code == 0
        assert "measured steady-state" in out

    def test_analyze_multi_run_prints_outcomes_table(self, sweep_jsonl, capsys):
        code = main(["analyze", "--from-jsonl", str(sweep_jsonl)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run outcomes" in out
        assert "STOPPED = budget cap" in out

    def test_analyze_smoke_gate(self, capsys):
        # The CI configuration: deterministic, must sit within tolerance
        # of the Cor. 3.2 prediction.
        args = ["analyze", "--algorithm", "LSH_ps1", "--m", "2",
                "--eta", "0.01", "--seed", "1", "--smoke"]
        assert main(args + ["--tolerance", "1.0"]) == 0
        assert "... OK" in capsys.readouterr().out
        # An unrealistically tight tolerance must flip the exit code.
        assert main(args + ["--tolerance", "0.01"]) == 1

    def test_analyze_smoke_needs_occupancy_probe(self, capsys):
        code = main(["analyze", "--algorithm", "LSH_ps1", "--m", "2",
                     "--probes", "staleness", "--smoke"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no finite occupancy" in out

    def test_analyze_unknown_probe_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown probe"):
            main(["analyze", "--probes", "bogus"])


class TestCliTable1:
    def test_prints_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "Fig 3" in out


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSerialization:
    def test_roundtrip_arrays_and_specials(self, tmp_path):
        data = {
            "arr": np.arange(4, dtype=np.float32),
            "nan": float("nan"),
            "inf": float("inf"),
            "neg": float("-inf"),
            "nested": [{"x": np.int64(3)}],
        }
        path = save_results([data], tmp_path / "x.json")
        (loaded,) = load_results(path)
        np.testing.assert_array_equal(loaded["arr"], data["arr"])
        assert np.isnan(loaded["nan"])
        assert loaded["inf"] == float("inf") and loaded["neg"] == float("-inf")
        assert loaded["nested"][0]["x"] == 3

    def test_result_to_dict_on_run_result(self, quadratic, cost_model):
        from repro.harness.runner import run_once
        from tests.conftest import make_run_config

        result = run_once(quadratic, cost_model, make_run_config(m=2))
        payload = result_to_dict(result)
        assert payload["status"] == "converged"
        assert payload["config"]["algorithm"] == "LSH_psinf"
        assert isinstance(payload["staleness_values"], dict)  # ndarray wrapper

    def test_save_single_result_wraps_in_list(self, tmp_path):
        path = save_results({"a": 1}, tmp_path / "y.json")
        assert load_results(path) == [{"a": 1}]


class TestCliSweep:
    def test_sweep_quadratic(self, capsys):
        code = main(["sweep", "--algorithms", "HOG,LSH_ps0", "--m", "2",
                     "--etas", "0.05", "--repeats", "1",
                     "--workload", "quadratic", "--target-eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep summary" in out and "LSH_ps0" in out

    def test_sweep_archives_json(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        code = main(["sweep", "--algorithms", "SEQ", "--m", "4", "--etas", "0.05",
                     "--repeats", "1", "--workload", "quadratic",
                     "--target-eps", "0.1", "--json", str(path)])
        assert code == 0
        assert path.exists()


class TestCliReport:
    def test_report_command(self, tmp_path, capsys):
        rendered = tmp_path / "rendered"
        rendered.mkdir()
        (rendered / "S1_Fig3.txt").write_text("regenerated stuff")
        out = tmp_path / "report.md"
        code = main(["report", "--rendered", str(rendered), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "regenerated stuff" in text and "S1/Fig3" in text


class TestCliDb:
    def test_ingest_is_idempotent(self, sweep_jsonl, tmp_path, capsys):
        db = tmp_path / "results.sqlite"
        assert main(["db", "ingest", str(sweep_jsonl), "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "8 inserted, 0 duplicate" in out
        assert "8 runs total" in out
        assert main(["db", "ingest", str(sweep_jsonl), "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "0 inserted, 8 duplicate" in out
        assert "8 runs total" in out

    def test_stats_summarizes_store(self, sweep_jsonl, tmp_path, capsys):
        db = tmp_path / "results.sqlite"
        main(["db", "ingest", str(sweep_jsonl), "--db", str(db)])
        capsys.readouterr()
        assert main(["db", "stats", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "algorithms" in out
        assert "ASYNC" in out and "HOG" in out
        assert "run outcomes" in out

    def test_report_from_db(self, sweep_jsonl, tmp_path, capsys):
        from repro.report import validate_report_html

        db = tmp_path / "results.sqlite"
        main(["db", "ingest", str(sweep_jsonl), "--db", str(db)])
        out = tmp_path / "section5.html"
        code = main(["report", "--db", str(db), "--out", str(out),
                     "--generated-at", "PINNED"])
        assert code == 0
        page = out.read_text(encoding="utf-8")
        validate_report_html(page)
        assert "Mann-Whitney" in page
        assert "PINNED" in page

    def test_report_from_db_writes_where_out_says(
        self, sweep_jsonl, tmp_path, capsys, monkeypatch
    ):
        # --out equal to the markdown branch's default name is still the
        # path the user asked for; only an absent --out gets a default.
        db = tmp_path / "results.sqlite"
        main(["db", "ingest", str(sweep_jsonl), "--db", str(db)])
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--db", str(db), "--out", "reproduction_report.md"]) == 0
        assert (tmp_path / "reproduction_report.md").exists()
        assert not (tmp_path / "report.html").exists()
        assert main(["report", "--db", str(db)]) == 0
        assert (tmp_path / "report.html").exists()
