"""The causality oracle: happens-before checks over the matrix."""

from __future__ import annotations

import pytest

from repro.verify.causal import RHYTHM_ADVANCING, check_cell, run_causal_matrix
from repro.verify.scenarios import CELLS

pytestmark = pytest.mark.verify


class TestCheckCell:
    def test_sync_two_synchronous_is_clean_on_both_engines(self):
        cell = CELLS[("sync_two", "synchronous")]
        for engine in ("rounds", "events"):
            result = check_cell(cell, seed=0, engine=engine, quick=True)
            assert result.ok, result.violations
            assert result.flows >= 1
            assert result.steps > 0

    def test_displacement_phantoms_are_excused_not_violations(self):
        cell = CELLS[("async_n", "displacement")]
        result = check_cell(cell, seed=0, engine="rounds", quick=True)
        assert result.ok, result.violations

    def test_rhythm_advancing_protocol_passes_without_strict_acks(self):
        assert "sync_logk" in RHYTHM_ADVANCING
        cell = CELLS[("sync_logk", "synchronous")]
        result = check_cell(cell, seed=0, engine="rounds", quick=True)
        assert result.ok, result.violations

    def test_result_json_carries_the_run_coordinates(self):
        cell = CELLS[("sync_two", "synchronous")]
        doc = check_cell(cell, seed=3, engine="events", quick=True).to_json()
        assert doc["protocol"] == "sync_two"
        assert doc["engine"] == "events"
        assert doc["seed"] == 3
        assert doc["ok"] is True


class TestMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_causal_matrix(seeds=range(1), quick=True)

    def test_full_quick_matrix_is_causally_clean(self, report):
        assert report.ok, report.format()

    def test_every_executable_cell_ran_on_each_native_engine(self, report):
        ran = {(r.protocol, r.scheduler, r.engine) for r in report.results}
        for (p, s) in CELLS:
            if s.startswith("event_"):
                assert (p, s, "events") in ran
            else:
                assert (p, s, "rounds") in ran and (p, s, "events") in ran

    def test_skips_are_documented(self, report):
        assert report.skipped
        assert all(reason for _, _, reason in report.skipped)

    def test_report_formats_with_a_summary_line(self, report):
        text = report.format()
        assert "instrumented runs" in text
        assert "0 failures" in text

    def test_report_json_round_trips(self, report):
        import json

        doc = json.loads(json.dumps(report.to_json()))
        assert doc["ok"] is True
        assert doc["runs"] == len(report.results)

    def test_protocol_filter_narrows_the_sweep(self):
        report = run_causal_matrix(
            protocols=["sync_two"], seeds=range(1), quick=True
        )
        assert report.results
        assert {r.protocol for r in report.results} == {"sync_two"}
