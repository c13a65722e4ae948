"""The longitudinal history store and the registry-snapshot flattener."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceFormatError
from repro.obs.history import (
    HISTORY_SCHEMA,
    HistoryEntry,
    HistoryStore,
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
