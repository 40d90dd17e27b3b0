"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.telemetry import read_jsonl

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
        # Two runs append two lines to one file, which reads back whole.
        path = tmp_path / "runs.jsonl"
        for seed in ("1", "2"):
            code = main(["run", "--algorithm", "HOG", "--m", "2", "--seed", seed,
                         "--workload", "quadratic", "--target-eps", "0.1",
                         "--jsonl", str(path)])
            assert code == 0
        rows = read_jsonl(path)
        assert [row["status"] for row in rows] == ["converged", "converged"]
        assert [row["config"]["seed"] for row in rows] == [1, 2]

    def test_unknown_algorithm_raises(self, capsys):
        assert main(["run", "--algorithm", "NOPE", "--workload", "quadratic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: error: ") and "NOPE" in err


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

    def test_analyze_unknown_probe_rejected(self, capsys):
        assert main(["analyze", "--probes", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro analyze: error: ") and "unknown probe" in err


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


class TestCliSweep:
    def test_sweep_quadratic(self, capsys):
        code = main(["sweep", "--algorithms", "HOG,LSH_ps0", "--m", "2",
                     "--etas", "0.05", "--repeats", "1",
                     "--workload", "quadratic", "--target-eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep summary" in out and "LSH_ps0" in out

    def test_sweep_archives_json(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--algorithms", "SEQ,HOG", "--m", "2", "--etas", "0.05",
                     "--repeats", "2", "--workload", "quadratic",
                     "--target-eps", "0.1", "--jsonl", str(path)])
        assert code == 0
        rows = read_jsonl(path)
        assert len(path.read_text().splitlines()) == len(rows) == 4  # one line per run
        assert [row["config"]["algorithm"] for row in rows] == ["SEQ"] * 2 + ["HOG"] * 2


class TestCliReport:
    def test_report_command(self, sweep_jsonl, tmp_path, capsys, monkeypatch):
        # With no --db, the report reads ./results.sqlite, where
        # ``db ingest`` puts rows by default.
        from repro.report import validate_report_html

        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 2  # nothing ingested yet, and no empty store left
        assert "no result store" in capsys.readouterr().err
        assert not (tmp_path / "results.sqlite").exists()
        assert main(["db", "ingest", str(sweep_jsonl)]) == 0
        assert main(["report", "--generated-at", "PINNED"]) == 0
        validate_report_html((tmp_path / "report.html").read_text(encoding="utf-8"))


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

    def test_ingest_refusal_is_one_error_line(self, tmp_path, capsys):
        # A refused input is a message on stderr and exit code 2, not a
        # traceback; a row list in a .json file is refused.
        path = tmp_path / "x.json"
        path.write_text("[]")
        assert main(["db", "ingest", str(path), "--db", str(tmp_path / "s.sqlite")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro db ingest: error: ")
        assert "x.json" in err and "JSONL" in err

    def test_stats_refuses_a_missing_store(self, tmp_path, capsys):
        # Opening the path would create the directory and an empty store.
        db = tmp_path / "sub" / "typo.sqlite"
        assert main(["db", "stats", "--db", str(db)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro db stats: error: ")
        assert err.count("\n") == 1 and "no result store" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("what", ["missing.jsonl", "plain_dir"])
    def test_ingest_refuses_a_bad_path_before_opening_the_store(
        self, what, sweep_jsonl, tmp_path, capsys
    ):
        (tmp_path / "plain_dir").mkdir()
        db = tmp_path / "fresh" / "fresh.sqlite"
        code = main(["db", "ingest", str(sweep_jsonl), str(tmp_path / what), "--db", str(db)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro db ingest: error: ") and what in err
        assert not db.parent.exists()  # neither the store nor its directory

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
        # --out is the path the user asked for; only an absent --out
        # gets the default name.
        db = tmp_path / "results.sqlite"
        main(["db", "ingest", str(sweep_jsonl), "--db", str(db)])
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--db", str(db), "--out", "section5.html"]) == 0
        assert (tmp_path / "section5.html").exists()
        assert not (tmp_path / "report.html").exists()
        assert main(["report", "--db", str(db)]) == 0
        assert (tmp_path / "report.html").exists()


class TestCliRefusals:
    """Refused input is exit 2 and one ``repro <command>: error:`` line,
    never a traceback and never a silent substitute."""

    @pytest.mark.parametrize("flag, value", [("--m", "2,x"), ("--etas", "0.05,y")])
    def test_sweep_bad_comma_list_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro sweep: error: argument {flag}: ")
        assert value in errors[0] and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_trace_refuses_a_non_positive_max_updates(self, value, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--max-updates", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro trace: error: --max-updates") and value in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_analyze_refuses_a_negative_tolerance(self, value, capsys):
        assert main(["analyze", "--smoke", "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro analyze: error: --tolerance")
        assert captured.out == ""  # refused before anything ran

    def test_report_eps_the_store_lacks_names_its_epsilons(self, sweep_jsonl, tmp_path, capsys):
        db = tmp_path / "results.sqlite"
        assert main(["db", "ingest", str(sweep_jsonl), "--db", str(db)]) == 0
        capsys.readouterr()
        out = tmp_path / "report.html"
        assert main(["report", "--db", str(db), "--eps", "0.33", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro report: error: ")
        assert "0.33" in err[0] and err[0].endswith("0.1, 0.5")
        assert not out.exists()


class TestAlgorithmHelp:
    @pytest.mark.parametrize("command", ["run", "trace", "analyze"])
    def test_help_names_every_registered_algorithm(self, command, capsys):
        from repro.core.base import _FACTORIES

        with pytest.raises(SystemExit) as exited:
            main([command, "-h"])
        assert exited.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo the wrapping
        for name in (*_FACTORIES, "LSH_ps<k>", "LSH_psinf"):
            assert name in text, name


@pytest.fixture
def mapped(monkeypatch):
    """Every ``(problem, cost, configs)`` an ExperimentService is asked to
    run, in call order; the calls still execute."""
    from repro.service import ExperimentService

    calls = []
    original = ExperimentService.map

    def spy(self, problem, cost, configs):
        configs = list(configs)
        calls.append((problem, cost, configs))
        return original(self, problem, cost, configs)

    monkeypatch.setattr(ExperimentService, "map", spy)
    return calls


class TestOneExecutor:
    """``run``, ``analyze`` and ``trace`` execute through the service,
    and what they report is the run ``run_once`` gives for the config
    the command built."""

    @pytest.mark.parametrize("argv, probes", [
        (["run", "--algorithm", "LSH_ps1", "--m", "4", "--seed", "3"], ()),
        (["analyze", "--algorithm", "LSH_ps1", "--m", "4", "--seed", "3"], None),
        (["analyze", "--algorithm", "HOG", "--m", "4", "--seed", "3", "--probes", ""], ()),
    ])
    def test_jsonl_line_is_the_direct_run(self, argv, probes, mapped, tmp_path, capsys):
        from repro.harness.runner import run_once
        from repro.identity import line_fingerprint, simulation_fingerprint
        from repro.telemetry import STANDARD_PROBES

        path = tmp_path / "runs.jsonl"
        main(argv + ["--jsonl", str(path)])
        [(problem, cost, [config])] = mapped
        assert config.probes == (STANDARD_PROBES if probes is None else probes)
        [line] = path.read_text().splitlines()
        assert line_fingerprint(line) == simulation_fingerprint(run_once(problem, cost, config))

    def test_trace_counts_are_the_direct_run(self, mapped, tmp_path, capsys):
        from repro.harness.runner import run_once
        from repro.observe.timeline import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["trace", "--m", "2", "--seed", "1", "--max-updates", "300",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        [(problem, cost, [config])] = mapped
        assert config.probes == ("timeline",) and config.max_updates == 300
        direct = validate_chrome_trace(run_once(problem, cost, config).metrics.probe("timeline"))
        assert (f"{direct['n_events']} events on {direct['n_tracks']} tracks "
                f"({direct['n_spans']} spans, {direct['n_instants']} instants)") in printed
