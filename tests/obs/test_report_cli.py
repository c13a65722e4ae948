"""The ASCII report views and the ``python -m repro.obs`` CLI."""

from __future__ import annotations

import re

import pytest

from repro.obs.__main__ import main, record_demo
from repro.obs.export import load_run
from repro.obs.report import (
    render_gantt,
    render_metrics,
    render_profile,
    render_report,
    render_timeline,
)


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory) -> str:
    """One recorded 2-robot sync_two run, shared across this module."""
    path = tmp_path_factory.mktemp("obs") / "demo.jsonl"
    return record_demo(str(path), steps=12)


class TestViews:
    def test_timeline_shows_every_robot(self, demo_path):
        text = render_timeline(load_run(demo_path))
        assert "r0" in text and "r1" in text
        assert "#" in text  # synchronous schedule: everyone active

    def test_gantt_shows_bit_rows_and_marks(self, demo_path):
        text = render_gantt(load_run(demo_path))
        assert "r0->r1" in text
        assert "E" in text and "R" in text

    def test_metrics_table_lists_bit_counters(self, demo_path):
        text = render_metrics(load_run(demo_path))
        assert "bits_total" in text
        assert "sim_steps_total" in text

    def test_profile_lists_every_phase(self, demo_path):
        text = render_profile(load_run(demo_path))
        for phase in ("schedule", "compute", "move", "record"):
            assert phase in text

    def test_profile_seconds_column_lines_up(self, demo_path):
        """Dotted phase names must not push the seconds column out."""
        text = render_profile(load_run(demo_path))
        rows = text.splitlines()[1:]
        assert any("." in row.split()[0] for row in rows)
        offsets = {re.search(r"\d\.\d{6}s", row).start() for row in rows}
        assert len(offsets) == 1, text

    def test_report_concatenates_everything(self, demo_path):
        text = render_report(load_run(demo_path))
        for fragment in ("activation timeline", "bit lifecycle", "metrics"):
            assert fragment in text

    def test_wide_runs_are_strided_to_fit(self, demo_path):
        run = load_run(demo_path)
        narrow = render_timeline(run, width=8)
        rows = [line for line in narrow.splitlines() if line.startswith("  r")]
        assert rows and all(len(r) <= 7 + 8 for r in rows)
        assert "every 2th instant" in narrow  # downsampling is announced


class TestCli:
    @pytest.mark.parametrize(
        "command", ["report", "timeline", "gantt", "metrics", "profile"]
    )
    def test_views_render_from_a_run_file(self, demo_path, command, capsys):
        assert main([command, demo_path]) == 0
        assert capsys.readouterr().out.strip()

    def test_demo_records_a_loadable_run(self, tmp_path, capsys):
        out = tmp_path / "fresh.jsonl"
        assert main(["demo", str(out), "--steps", "8"]) == 0
        run = load_run(str(out))
        assert run.total_instants == 8
        assert run.meta["protocol"] == "sync_two"

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such run file" in capsys.readouterr().err

    def test_garbled_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "repro-obs-v1", "version": 1, "meta": {}}\n{oops\n')
        assert main(["report", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err


class TestDiagnostics:
    """Every failure mode is one line on stderr — never a traceback."""

    def _err(self, capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        return err

    def test_directory_instead_of_a_run_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        self._err(capsys)

    def test_garbled_gzip_run_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl.gz"
        bad.write_bytes(b"\x1f\x8bnot really gzip")
        assert main(["report", str(bad)]) == 1
        self._err(capsys)

    def test_hotspots_with_a_missing_run(self, demo_path, tmp_path, capsys):
        assert main(["hotspots", demo_path, str(tmp_path / "gone.jsonl")]) == 1
        assert "no such run file" in self._err(capsys)

    def test_history_on_a_missing_file(self, tmp_path, capsys):
        assert main(["history", "--history", str(tmp_path / "h.jsonl")]) == 1
        assert "no such history file" in self._err(capsys)

    def test_history_with_an_unknown_metric(self, tmp_path, capsys):
        from repro.obs.history import HistoryEntry, HistoryStore

        store = HistoryStore(str(tmp_path / "h.jsonl"))
        store.append(HistoryEntry(source="t", run_id="t", metrics={"a": 1.0}))
        assert main(
            ["history", "--history", str(store.path), "--metric", "zzz"]
        ) == 1
        assert "no metric 'zzz'" in self._err(capsys)

    def test_garbled_history_line_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        path.write_text("{oops\n")
        assert main(["regress", "--history", str(path)]) == 1
        assert "line 1" in self._err(capsys)


class TestJsonFormat:
    """``--format json`` machine twins of the ASCII views."""

    @pytest.mark.parametrize("command", ["timeline", "gantt", "metrics"])
    def test_json_output_parses_and_names_its_view(
        self, demo_path, command, capsys
    ):
        import json

        assert main([command, demo_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["view"] == command

    def test_timeline_json_carries_instants_and_active_sets(
        self, demo_path, capsys
    ):
        import json

        main(["timeline", demo_path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["robots"] == 2
        assert doc["instants"][0]["active"] == [0, 1]

    def test_gantt_json_carries_bit_milestones(self, demo_path, capsys):
        import json

        main(["gantt", demo_path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        first = doc["bits"][0]
        assert first["src"] == 0 and first["dst"] == 1
        assert first["delivered"] is True
        assert first["moves"]

    def test_ascii_stays_the_default(self, demo_path, capsys):
        assert main(["metrics", demo_path]) == 0
        out = capsys.readouterr().out
        assert "bits_total" in out and not out.startswith("{")

    def test_views_without_a_json_twin_reject_the_flag(self, demo_path, capsys):
        with pytest.raises(SystemExit):
            main(["profile", demo_path, "--format", "json"])


class TestCausalCli:
    def test_summary_lists_the_flow(self, demo_path, capsys):
        assert main(["causal", demo_path]) == 0
        out = capsys.readouterr().out
        assert "flow 0->1" in out

    def test_critical_path_attributes_all_latency(self, demo_path, capsys):
        assert main(["causal", demo_path, "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "100.0%" in out

    def test_dot_emits_graphviz(self, demo_path, capsys):
        assert main(["causal", demo_path, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph causal {")

    def test_json_emits_the_versioned_document(self, demo_path, capsys):
        import json

        assert main(["causal", demo_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-causal-v1"
        assert doc["flows"][0]["critical_path"]["edges"]

    def test_output_modes_are_mutually_exclusive(self, demo_path):
        with pytest.raises(SystemExit):
            main(["causal", demo_path, "--dot", "--json"])

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["causal", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such run file" in capsys.readouterr().err


class TestWatchCli:
    def test_once_prints_the_latency_table(self, demo_path, capsys):
        assert main(["watch", demo_path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "0->1" in out and "p99" in out

    def test_bounded_iterations_terminate(self, demo_path, capsys):
        assert main(["watch", demo_path, "--iterations", "1",
                     "--interval", "0"]) == 0
        assert "watch frame 1" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "gone.jsonl")]) == 1
        assert "no such run file" in capsys.readouterr().err

    def test_nonpositive_window_is_a_one_line_error(self, demo_path, capsys):
        assert main(["watch", demo_path, "--once", "--window", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "window must be positive" in err
        assert "Traceback" not in err


class TestRegressDiagnostic:
    """Exit 3 comes with a one-line stderr diagnostic naming offenders."""

    def _history_with_regression(self, tmp_path):
        from repro.obs.history import HistoryEntry, HistoryStore

        store = HistoryStore(str(tmp_path / "h.jsonl"))
        for value in (1.0, 1.0, 1.1, 1.0):
            store.append(
                HistoryEntry(source="t", run_id="t", metrics={"elapsed_s": value})
            )
        store.append(
            HistoryEntry(source="t", run_id="t", metrics={"elapsed_s": 10.0})
        )
        return str(store.path)

    def test_gating_failure_names_metric_and_band(self, tmp_path, capsys):
        path = self._history_with_regression(tmp_path)
        assert main(["regress", "--history", path]) == 3
        captured = capsys.readouterr()
        assert "REGRESSIONS" in captured.out
        line = captured.err.strip()
        assert line.count("\n") == 0  # one line, grep-able
        assert "out of bounds" in line
        assert "elapsed_s=10" in line
        assert "median 1" in line and "band [" in line

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_nonpositive_window_is_a_one_line_error(self, tmp_path, capsys, window):
        path = self._history_with_regression(tmp_path)
        assert main(["regress", "--history", path, "--window", window]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: window must be positive, got {window}\n"

    def test_report_only_suppresses_the_diagnostic(self, tmp_path, capsys):
        path = self._history_with_regression(tmp_path)
        assert main(["regress", "--history", path, "--report-only"]) == 0
        assert capsys.readouterr().err == ""


class TestHotspotsCli:
    def test_hotspots_render_for_the_demo_run(self, demo_path, capsys):
        assert main(["hotspots", demo_path]) == 0
        out = capsys.readouterr().out
        assert "hotspots [sync_two x synchronous]" in out
        assert "r0->r1" in out

    def test_top_zero_means_all_rows(self, demo_path, capsys):
        assert main(["hotspots", demo_path, "--top", "0"]) == 0
        out = capsys.readouterr().out
        # the sub-phase rows only fit when nothing is truncated
        assert "compute.observe" in out
        assert "compute.decide" in out
