"""Tests of the benchmark itself: statistics, tracing, inputs, contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The workload tests run every workload at its tiny size through the real
command line, with the same output checks as the full-size runs.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import stats
from perfbench.common import ROOT, Checks, require_program
from perfbench.serving import expected_outcome
from perfbench.trace import Tracer

require_program()

from perfbench.run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT, seed: int = 3):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


# -- percentile ----------------------------------------------------------

@pytest.mark.parametrize("size", [1, 2, 7, 100, 1001])
def test_percentile_matches_numpy_inverted_cdf(size):
    numpy = pytest.importorskip("numpy")
    rng = random.Random(size)
    values = [rng.expovariate(1.0) for _ in range(size)]
    for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100):
        expected = float(numpy.percentile(values, q, method="inverted_cdf"))
        assert stats.percentile(values, q) == expected


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond():
    assert stats.supported(100, 90) and not stats.supported(99, 90)
    assert stats.supported(1000, 99) and not stats.supported(999, 99)


# -- tracing ---------------------------------------------------------------

def test_self_time_subtracts_children_and_leaves():
    tracer = Tracer("t")
    root = tracer.open("bench.iteration")
    child = tracer.open("a")
    tracer.leaf("leafy", 0.0)
    tracer.close(child)
    tracer.close(root)
    root.start, root.end = 0.0, 10.0
    child.start, child.end = 1.0, 5.0
    child.leaves = {"leafy": 1.5}
    times = tracer.self_times([root])
    assert times == {"bench.iteration": 6.0, "a": 2.5, "leafy": 1.5}
    assert tracer.coverage(root, 8.0) == 0.5


def test_patch_and_unpatch_restore_every_attribute():
    class Thing:
        def method(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    method, build = Thing.__dict__["method"], Thing.__dict__["build"]
    tracer = Tracer("t")
    root = tracer.open("bench.iteration")
    tracer.patch_span(Thing, "method", "thing.method")
    tracer.patch_span(Thing, "build", "thing.build")
    assert Thing.build().method() == 1
    tracer.unpatch()
    tracer.close(root)
    assert Thing.__dict__["method"] is method and Thing.__dict__["build"] is build
    assert [s.name for s in tracer.spans] == ["bench.iteration", "thing.build", "thing.method"]
    assert all(s.parent == root.id for s in tracer.spans[1:])


def test_spans_must_close_in_order():
    tracer = Tracer("t")
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- inputs and checks -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_equal_seeds_give_equal_inputs(name):
    workload = WORKLOADS[name]
    params = {**workload.params, **workload.tiny}
    first = workload.make_inputs(5, params)
    assert first == workload.make_inputs(5, params)
    assert first != workload.make_inputs(6, params)


def test_serve_outcome_checks():
    election = {"app": "leader_election", "size": 3, "params": {"values": [11, 12, 10]}}
    assert expected_outcome(election, {"status": "done", "leader": 1, "decided_by": [1, 1, 1]}) is None
    assert expected_outcome(election, {"status": "done", "leader": 0, "decided_by": [0, 0, 0]})
    chat = {"app": "chat", "size": 2, "params": {}}
    assert expected_outcome(chat, {"status": "done", "delivered": [1, 0]})
    assert expected_outcome(chat, {"status": "stalled", "delivered": [1, 1]})
    ring = {"app": "token_ring", "size": 6, "params": {"laps": 1}}
    assert expected_outcome(ring, {"status": "done", "hops": 6, "total_hops": 6}) is None
    gossip = {"app": "gossip", "size": 8, "params": {}}
    assert expected_outcome(gossip, {"status": "done", "informed": 7})


def test_checks_count_failures():
    checks = Checks()
    checks.expect(True, "fine")
    checks.expect(False, "broken")
    assert (checks.attempted, checks.failed, checks.failures) == (2, 1, ["broken"])


# -- the contract ------------------------------------------------------------------

def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, trace):
    done = _run(name, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    header = json.loads(lines[0])["run"]
    assert header["workload"] == name and header["seed"] == 3
    assert {"git_commit", "nproc", "python", "numpy", "params"} <= set(header)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["tracing.coverage"]["value"] > 0.5


def test_all_runs_every_workload_and_sums_the_checks():
    done = _run("all", 0)
    assert done.returncode == 0, done.stdout[-3000:]
    lines = done.stdout.strip().splitlines()
    headers = [json.loads(line)["run"]["workload"] for line in lines if line.startswith('{"run"')]
    assert headers == list(WORKLOADS)
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > len(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("swarm_n64", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
