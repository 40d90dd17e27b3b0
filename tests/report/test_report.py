"""Tests for the HTML report builder: content contract, structural
validation, and the byte-determinism guarantee."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.identity import encode
from repro.report import build, build_report, validate_report_html, write_report
from repro.report.html import html_page, html_table
from repro.store import ResultStore, ingest_path

from tests.report.test_stats import reference_bootstrap_ci


@pytest.fixture
def store(sweep_jsonl, tmp_path):
    with ResultStore(":memory:") as s:
        ingest_path(s, sweep_jsonl)
        history = tmp_path / "hist.jsonl"
        entries = [
            {"label": "a", "metrics": {"engine.events_per_sec": 100.0},
             "provenance": {"git_sha": "abc"}},
            {"label": "b", "metrics": {"engine.events_per_sec": 120.0},
             "provenance": {"git_sha": "def"}},
        ]
        history.write_text("".join(json.dumps(e) + "\n" for e in entries))
        ingest_path(s, history)
        yield s


class TestBuildReport:
    def test_page_validates(self, store):
        validate_report_html(build_report(store))

    def test_statistical_tables_present(self, store):
        page = build_report(store)
        assert "Mann-Whitney" in page
        assert "A12" in page
        assert "bootstrap CI" in page
        assert "Ranking by median" in page
        # Both algorithms appear in the comparison cell.
        assert "ASYNC" in page and "HOG" in page

    def test_embedded_svg_figures(self, store):
        page = build_report(store)
        assert page.count("<svg") >= 2  # box plot + bench trajectory
        assert 'xmlns="http://www.w3.org/2000/svg"' in page

    def test_failure_and_outcome_tables(self, store):
        page = build_report(store)
        assert "Run outcomes" in page
        assert "stopped" in page and "crashed" in page

    def test_bench_trajectory_section(self, store):
        page = build_report(store)
        assert "Benchmark trajectory" in page
        assert "engine.events_per_sec" in page

    def test_explicit_eps_overrides_default(self, store):
        page = build_report(store, eps=0.5)
        assert "ε = 0.5" in page

    def test_empty_store_raises(self):
        with ResultStore(":memory:") as empty:
            with pytest.raises(ConfigurationError, match="no runs"):
                build_report(empty)

    def test_write_report_round_trip(self, store, tmp_path):
        path = write_report(store, tmp_path / "out" / "report.html",
                            generated_at="X")
        validate_report_html(path.read_text(encoding="utf-8"))


class TestDeterminism:
    def test_byte_identical_given_fixed_db_and_timestamp(self, store):
        a = build_report(store, generated_at="PINNED", seed=3)
        b = build_report(store, generated_at="PINNED", seed=3)
        assert a == b

    def test_timestamp_isolated_to_footer_block(self, store):
        a = build_report(store, generated_at="2026-01-01")
        b = build_report(store, generated_at="2026-02-02")
        # The two pages differ ONLY in the single generated-at block.
        diff_lines = [
            (la, lb) for la, lb in zip(a.splitlines(), b.splitlines())
            if la != lb
        ]
        assert len(diff_lines) == 1
        assert 'id="generated-at"' in diff_lines[0][0]
        assert a.count('id="generated-at"') == 1

    def test_rebuild_from_reopened_db_identical(self, store, sweep_jsonl, tmp_path):
        # The full pipeline is deterministic too: fresh DB on disk,
        # re-ingest, rebuild -> same bytes as the in-memory build.
        want = build_report(store, generated_at="PINNED")
        db = tmp_path / "r.sqlite"
        with ResultStore(db) as disk:
            ingest_path(disk, sweep_jsonl)
            ingest_path(disk, sweep_jsonl)  # idempotent re-ingest
        history = tmp_path / "hist.jsonl"
        history.write_text("".join(json.dumps(e) + "\n" for e in (
            {"label": "a", "metrics": {"engine.events_per_sec": 100.0},
             "provenance": {"git_sha": "abc"}},
            {"label": "b", "metrics": {"engine.events_per_sec": 120.0},
             "provenance": {"git_sha": "def"}},
        )))
        with ResultStore(db) as disk:
            ingest_path(disk, history)
            assert build_report(disk, generated_at="PINNED") == want


def _synthetic_row(algorithm: str, seed: int, t: float | None) -> dict:
    """A minimal hand-made run row (``t`` None = diverged, no sample)."""
    return {
        "config": {"algorithm": algorithm, "m": 4, "eta": 0.05, "seed": seed,
                   "epsilons": [0.1], "target_epsilon": 0.1},
        "status": "diverged" if t is None else "converged",
        "report": {
            "threshold_times": {} if t is None else {"0.1": [t, 100 + seed]},
            "final_loss": 0.05,
        },
        "schema_version": 3,
        "n_updates": 100 + seed,
        "virtual_time": 9.0 if t is None else t,
    }


class TestBootstrapPathOnThePage:
    def test_page_identical_under_reference_row_loop(self, monkeypatch):
        """The page's CIs come from the block-gather bootstrap; swapping
        in the per-resample reference loop must not move one byte."""
        samples = {
            "ASYNC": [3.25, 1.5, 2.75],            # odd n
            "HOG": [2.0, 2.0, 4.5, 1.125],         # even n, tied values
            "LSH_ps0": [0.875, 1.0, 0.9375, 1.0, 0.75, 1.25, 0.8125],
            "LSH_ps1": [0.625],                    # n = 1
            "LSH_psinf": [None, None],             # no sample: ranked last
        }
        with ResultStore(":memory:") as store:
            for algorithm, times in samples.items():
                for seed, t in enumerate(times):
                    row = _synthetic_row(algorithm, seed, t)
                    assert store.insert_row(row, encode(row), source="synthetic")
            page = build_report(store, generated_at="PINNED", seed=3)
            calls = []

            def reference(values, **kwargs):
                calls.append(len(values))
                return reference_bootstrap_ci(values, **kwargs)

            monkeypatch.setattr(build, "bootstrap_ci", reference)
            assert build_report(store, generated_at="PINNED", seed=3) == page
        assert sorted(calls) == [1, 3, 4, 7]
        validate_report_html(page)


class TestValidator:
    def _page(self, body="<p>hi</p><svg></svg>"):
        return html_page("t", body, generated_at="now")

    def test_accepts_well_formed_page(self):
        validate_report_html(self._page())

    def test_rejects_scripts(self):
        with pytest.raises(ConfigurationError, match="scripts"):
            validate_report_html(self._page("<script>x</script><svg/>"))

    def test_rejects_external_fetches(self):
        with pytest.raises(ConfigurationError, match="external"):
            validate_report_html(
                self._page('<img src="http://evil/x.png"><svg/>')
            )
        with pytest.raises(ConfigurationError, match="offline"):
            validate_report_html(
                self._page('<a href="https://example.com">x</a><svg/>')
            )

    def test_rejects_missing_svg(self):
        with pytest.raises(ConfigurationError, match="SVG"):
            validate_report_html(self._page("<p>no figures</p>"))

    def test_rejects_second_timestamp_block(self):
        page = self._page('<div id="generated-at">again</div><svg/>')
        with pytest.raises(ConfigurationError, match="generated-at"):
            validate_report_html(page)

    def test_rejects_truncated_page(self):
        page = self._page().replace("</html>", "")
        with pytest.raises(ConfigurationError, match="truncated"):
            validate_report_html(page)


class TestHtmlTable:
    def test_cells_escaped(self):
        table = html_table(("h",), [("<b>&",)])
        assert "&lt;b&gt;&amp;" in table
        assert "<b>" not in table

    def test_numeric_and_highlight_classes(self):
        table = html_table(("a", "b"), [(1, 2), (3, 4)],
                           numeric=(1,), highlight=(0,))
        assert table.count('class="num"') == 2
        assert table.count('class="sig"') == 1
