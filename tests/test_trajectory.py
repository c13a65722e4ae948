"""The paired benchmark runner and the committed trajectory it feeds.

The runner is exercised with a stub benchmark command, a ``python -c``
that prints one result line, so nothing here runs the benchmark.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from benchmarks import trajectory
from repro.obs.__main__ import main as obs_main
from repro.obs.history import HistoryEntry, HistoryStore, direction_of

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: the stub benchmark: its k-th run of a workload on a side prints
#: set-up 1 + k (parent) or 0.5 + k (change), and a rate of 100 (parent)
#: or alternately 90 and 110 (change); every run is logged in order.
STUB = """
import json, pathlib, sys
side = pathlib.Path("side.txt").read_text().strip()
workload = sys.argv[sys.argv.index("--workload") + 1]
log = pathlib.Path(sys.argv[1])
done = log.read_text().splitlines() if log.exists() else []
k = done.count(f"{side} {workload}")
with log.open("a") as handle:
    handle.write(f"{side} {workload}\\n")
if side == "parent":
    setup, rate = 1.0 + k, 100.0
else:
    setup, rate = 0.5 + k, 110.0 if k % 2 else 90.0
metrics = {"setup_s": {"value": setup, "unit": "s"},
           "activations_per_s": {"value": rate, "unit": "1/s"}}
print("a table line")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""

SPEC = {
    "run_seconds": 1,
    "end_to_end": [
        {"name": "setup_s", "better": "lower"},
        {"name": "activations_per_s", "better": "higher"},
    ],
}
WORKLOADS = ("alpha", "beta")
PAIRS = 4


@pytest.fixture
def paired(tmp_path):
    """The stub's samples over two trees, and its run log."""
    trees = {}
    for side in trajectory.SIDES:
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "side.txt").write_text(side)
    log = tmp_path / "runs.log"
    command = [sys.executable, "-c", STUB, str(log)]
    samples = trajectory.run_pairs(command, WORKLOADS, trees, pairs=PAIRS)
    return samples, log.read_text().splitlines()


class TestPairing:
    def test_the_side_that_runs_first_alternates(self, paired):
        _, runs = paired
        expected = []
        for workload in WORKLOADS:
            for i in range(PAIRS):
                first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                expected += [f"{first} {workload}", f"{second} {workload}"]
        assert runs == expected

    def test_medians_ratios_and_wins(self, paired):
        samples, _ = paired
        metrics, parent_medians, wins = trajectory.summarise(samples, SPEC["end_to_end"])
        for workload in WORKLOADS:
            # set-up: parent 1..4, change 0.5..3.5; the change wins every pair
            assert metrics[f"{workload}.setup_s"] == 2.0
            assert parent_medians[f"{workload}.setup_s"] == 2.5
            assert metrics[f"{workload}.ratio.setup_s"] == pytest.approx(0.8)
            assert wins[f"{workload}.setup_s"] == PAIRS
            # rate: parent 100, change 90/110; the change wins every other pair
            assert metrics[f"{workload}.activations_per_s"] == 100.0
            assert metrics[f"{workload}.ratio.activations_per_s"] == 1.0
            assert wins[f"{workload}.activations_per_s"] == PAIRS // 2

    def test_a_failed_run_stops_the_runner(self, tmp_path):
        failing = [sys.executable, "-c", "print('{\"correct\": false}')"]
        with pytest.raises(SystemExit, match="failed"):
            trajectory.run_once(failing, tmp_path)


class TestTrajectoryLine:
    @pytest.fixture
    def history(self, paired, tmp_path):
        samples, _ = paired
        path = tmp_path / trajectory.TRAJECTORY
        entry = trajectory.trajectory_entry(samples, SPEC, "a" * 40, "b" * 40)
        HistoryStore(str(path)).append(entry)
        return path

    def test_exactly_one_line_that_round_trips(self, history):
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        entry = HistoryEntry.from_json(doc)
        assert entry.to_json() == doc
        assert entry.meta["pairs"] == PAIRS
        assert entry.meta["parent"] == "a" * 40
        assert entry.meta["tree"] == "b" * 40
        assert set(entry.meta["wins"]) == set(entry.meta["parent_medians"])

    def test_the_history_clis_read_it(self, history, monkeypatch, capsys):
        monkeypatch.chdir(history.parent)
        assert obs_main(["history"]) == 0
        assert "1 entries in BENCH_trajectory.jsonl" in capsys.readouterr().out
        assert obs_main(["regress", "--report-only"]) == 0
        assert obs_main(["diff", "1", "1", "--history", str(history)]) == 0


class TestBenchmarkNames:
    @pytest.mark.parametrize(
        "metric", BENCHMARK["end_to_end"], ids=lambda m: m["name"]
    )
    def test_every_written_name_reads_the_declared_direction(self, metric):
        for workload in BENCHMARK["workloads"]:
            for name in (
                metric["name"],
                trajectory.metric_name(workload["name"], metric["name"]),
                trajectory.ratio_name(workload["name"], metric["name"]),
            ):
                assert direction_of(name) == metric["better"], name

    def test_the_committed_trajectory_covers_every_end_to_end_metric(self):
        entries = HistoryStore(str(ROOT / trajectory.TRAJECTORY)).entries()
        assert entries, "the committed trajectory is empty"
        for entry in entries:
            assert entry.meta["pairs"] >= trajectory.PAIRS
            for workload in BENCHMARK["workloads"]:
                for metric in BENCHMARK["end_to_end"]:
                    name = trajectory.metric_name(workload["name"], metric["name"])
                    assert name in entry.metrics
                    assert trajectory.ratio_name(workload["name"], metric["name"]) in entry.metrics
