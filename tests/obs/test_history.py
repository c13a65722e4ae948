"""The longitudinal history store and its ingest adapters."""

from __future__ import annotations

import json

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.errors import TraceFormatError
from repro.obs.history import (
    HISTORY_SCHEMA,
    HistoryEntry,
    HistoryStore,
    entry_from_campaign,
    metrics_from_snapshot,
)
from repro.obs.registry import MetricsRegistry


def _entry(**metrics) -> HistoryEntry:
    return HistoryEntry(source="test", run_id="t", metrics=metrics)


class TestStore:
    def test_append_assigns_increasing_seq_and_stamps(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        first = store.append(_entry(a=1.0))
        second = store.append(_entry(a=2.0))
        assert (first.seq, second.seq) == (1, 2)
        assert first.recorded_at is not None

    def test_entries_round_trip_exactly(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        entry = HistoryEntry(
            source="run_all",
            run_id="quick",
            metrics={"cached_s": 0.5},
            meta={"mode": "quick"},
            git_commit="deadbeef",
        )
        store.append(entry)
        loaded = store.entries()[0]
        assert loaded.metrics == {"cached_s": 0.5}
        assert loaded.meta == {"mode": "quick"}
        assert loaded.git_commit == "deadbeef"
        assert loaded.source == "run_all"

    def test_missing_file_reads_as_empty(self, tmp_path):
        store = HistoryStore(str(tmp_path / "absent.jsonl"))
        assert store.entries() == []
        assert not store.exists()

    def test_lines_are_self_describing(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        store.append(_entry(a=1.0))
        doc = json.loads(store.path.read_text().splitlines()[0])
        assert doc["schema"] == HISTORY_SCHEMA
        assert doc["seq"] == 1

    def test_garbled_line_names_the_line(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        store.append(_entry(a=1.0))
        with open(store.path, "a") as handle:
            handle.write("{oops\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            store.entries()

    def test_wrong_schema_line_is_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema": "something-else", "seq": 1}\n')
        with pytest.raises(TraceFormatError, match="line 1"):
            HistoryStore(str(path)).entries()

    def test_series_tracks_one_metric_over_time(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        store.append(_entry(a=1.0, b=9.0))
        store.append(_entry(a=2.0))
        store.append(_entry(b=7.0))
        assert store.series("a") == [(1, 1.0), (2, 2.0)]
        assert store.metric_names() == ["a", "b"]

    def test_sqlite_index_is_a_pure_derivation(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        store.append(_entry(a=1.0))
        store.append(_entry(a=3.0))
        rows = store.query_index(
            "SELECT seq, value FROM metrics WHERE name = ? ORDER BY seq", "a"
        )
        assert rows == [(1, 1.0), (2, 3.0)]
        store.index_path.unlink()
        assert store.query_index("SELECT COUNT(*) FROM entries") == [(2,)]


class TestGzipStore:
    """``*.jsonl.gz`` histories append and read transparently."""

    def test_append_and_read_back_through_gzip(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl.gz"))
        store.append(_entry(a=1.0))
        store.append(_entry(a=2.0))
        loaded = store.entries()
        assert [e.seq for e in loaded] == [1, 2]
        assert loaded[1].metrics == {"a": 2.0}

    def test_the_file_really_is_gzip(self, tmp_path):
        store = HistoryStore(str(tmp_path / "h.jsonl.gz"))
        store.append(_entry(a=1.0))
        with open(store.path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"

    def test_cli_diff_reads_a_gzipped_history(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        store = HistoryStore(str(tmp_path / "h.jsonl.gz"))
        store.append(_entry(a=1.0))
        store.append(_entry(a=5.0))
        assert obs_main(["diff", "1", "2", "--history", str(store.path)]) == 0
        out = capsys.readouterr().out
        assert "entry #1" in out and "entry #2" in out
        assert "a" in out

    def test_cli_regress_gates_a_gzipped_history(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        store = HistoryStore(str(tmp_path / "h.jsonl.gz"))
        for value in (1.0, 1.0, 1.1, 1.0, 50.0):
            store.append(_entry(elapsed_s=value))
        assert obs_main(["regress", "--history", str(store.path)]) == 3
        assert "elapsed_s" in capsys.readouterr().err


class TestFlatten:
    def test_snapshot_metrics_carry_sorted_labels(self):
        registry = MetricsRegistry()
        registry.counter("bits", scheduler="sync", protocol="p").inc(3)
        registry.histogram("lat", buckets=[1.0]).observe(0.5)
        registry.histogram("lat", buckets=[1.0]).observe(1.5)
        flat = metrics_from_snapshot(registry.collect())
        assert flat["bits{protocol=p,scheduler=sync}"] == 3.0
        assert flat["lat.count"] == 2.0
        assert flat["lat.sum"] == 2.0
        assert flat["lat.mean"] == 1.0


def _selftest_spec(tmp_path, behaviors):
    doc = {
        "name": "history-export",
        "defaults": {"timeout_s": 10.0, "max_attempts": 1, "backoff_s": 0.05},
        "cells": [
            {"kind": "selftest", "params": {"behavior": b, "value": i}}
            for i, b in enumerate(behaviors)
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCampaignExport:
    def test_export_history_appends_store_aggregates(self, tmp_path, capsys):
        spec = _selftest_spec(tmp_path, ["ok", "ok"])
        store = str(tmp_path / "store")
        assert campaign_main(["run", "--spec", spec, "--store", store]) == 0
        history = str(tmp_path / "h.jsonl")
        assert campaign_main(
            ["export-history", store, "--history", history]
        ) == 0
        assert "entry #1" in capsys.readouterr().out
        entries = HistoryStore(history).entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.source == "campaign"
        assert entry.run_id == "history-export"
        assert entry.metrics["cells_total"] == 2.0
        assert entry.metrics["cells_ok"] == 2.0
        assert entry.metrics["cells_failed"] == 0.0
        cell_series = [m for m in entry.metrics if m.startswith("cell.")]
        assert len(cell_series) == 2
        assert all(name.endswith(".elapsed_s") for name in cell_series)

    def test_entry_from_campaign_on_a_missing_store_errors(self, tmp_path):
        from repro.campaign.store import ResultStore
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            entry_from_campaign(ResultStore(str(tmp_path / "nope")))
