"""Append one paired benchmark line to ``BENCH_trajectory.jsonl``.

Usage (from the root of a checkout, the change in the working tree)::

    PYTHONPATH=src python benchmarks/trajectory.py              # parent: HEAD
    PYTHONPATH=src python benchmarks/trajectory.py --parent HEAD~1

The parent commit is extracted with ``git archive`` into a temporary
directory; the working tree is the change.  Every workload of
``BENCHMARK.json`` runs :data:`PAIRS` times on each side with the
benchmark's own command (``--seed 1 --seconds <run_seconds> --trace
0``), and the side that runs first alternates from pair to pair, so a
drifting host favours neither.  A run that fails its output checks
stops the runner before anything is written.

The result is one :class:`~repro.obs.history.HistoryEntry` appended to
the committed trajectory, so ``python -m repro.obs history``,
``regress`` and ``diff --history`` read it:

* ``metrics`` holds, per workload and end-to-end metric, the change's
  median (``<workload>.<metric>``) and the change/parent ratio of
  medians (``<workload>.ratio.<metric>``).  Absolute numbers do not
  carry across hosts or sessions; paired ratios do.
* ``meta`` holds the parent's medians, how many of the pairs the
  change won on each metric, the pair count, ``nproc``, the parent's
  commit and the git tree hash of the measured working tree (the
  change's own commit does not exist yet when it is measured).

Everything but the parent ref comes from ``BENCHMARK.json``: command,
workloads, metric names, ``better`` directions and ``run_seconds``.
The full run takes about ``2 * PAIRS * workloads * run_seconds``
seconds (about 30 minutes on a 2-core host).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.history import HistoryEntry, HistoryStore

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: alternating pairs per workload: the fewest that can show a 9-of-10 win
PAIRS = 10

#: the committed trajectory, one line per change
TRAJECTORY = "BENCH_trajectory.jsonl"

#: the two sides of a pair, in the order the first pair runs them
SIDES = ("parent", "change")

Metrics = Dict[str, float]


def metric_name(workload: str, metric: str) -> str:
    """The trajectory name of the change's median of ``metric``."""
    return f"{workload}.{metric}"


def ratio_name(workload: str, metric: str) -> str:
    """The trajectory name of the change/parent ratio of medians.

    The metric stays the last dotted segment, so
    :func:`~repro.obs.history.regress.direction_of` reads the same
    direction of goodness for the ratio as for the metric.
    """
    return f"{workload}.ratio.{metric}"


def _git(*args: str, cwd: pathlib.Path = ROOT, env=None) -> str:
    done = subprocess.run(
        ["git", *args], cwd=cwd, env=env, check=True,
        stdout=subprocess.PIPE, text=True,
    )
    return done.stdout.strip()


def extract(ref: str, dest: pathlib.Path) -> str:
    """Unpack commit ``ref`` into ``dest``; returns its full sha."""
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    archive = dest / "parent.tar"
    _git("archive", "--format=tar", "-o", str(archive), sha)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return sha


def tree_hash() -> str:
    """The git tree hash of the working tree, untracked files included.

    Staged into a throwaway index, so the real one is left as it was.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(pathlib.Path(tmp) / "index")}
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


def run_once(command: Sequence[str], tree: pathlib.Path) -> Metrics:
    """One benchmark run in ``tree``: its metrics, or SystemExit.

    ``PYTHONPATH`` is dropped so that each tree imports its own
    ``src``, which the benchmark puts on its path itself.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        list(command), cwd=tree, env=env, check=False,
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(
            f"trajectory: {' '.join(command)} failed in {tree} "
            f"(exit {done.returncode})"
        )
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def run_pairs(
    command: Sequence[str],
    workloads: Sequence[str],
    trees: Mapping[str, pathlib.Path],
    pairs: int = PAIRS,
) -> Dict[str, List[Dict[str, Metrics]]]:
    """``pairs`` runs of each workload on each side, alternating first.

    Returns, per workload, one ``{side: metrics}`` mapping per pair;
    each finished run is reported on standard error.
    """
    samples: Dict[str, List[Dict[str, Metrics]]] = {}
    for workload in workloads:
        samples[workload] = []
        for i in range(pairs):
            pair: Dict[str, Metrics] = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side] = run_once([*command, "--workload", workload], trees[side])
                print(f"[{workload} pair {i + 1}/{pairs} {side}]", file=sys.stderr, flush=True)
            samples[workload].append(pair)
    return samples


def summarise(
    samples: Mapping[str, List[Dict[str, Metrics]]],
    end_to_end: Sequence[Mapping[str, str]],
):
    """``(metrics, parent_medians, wins)`` over the paired samples.

    A pair is a win for the change on a metric when its value is
    strictly better, in the metric's ``better`` direction, than the
    parent's value in the same pair.
    """
    metrics: Metrics = {}
    parent_medians: Metrics = {}
    wins: Dict[str, int] = {}
    for workload, pairs in samples.items():
        for spec in end_to_end:
            name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
            change = statistics.median(p["change"][name] for p in pairs)
            parent = statistics.median(p["parent"][name] for p in pairs)
            key = metric_name(workload, name)
            metrics[key] = change
            metrics[ratio_name(workload, name)] = change / parent
            parent_medians[key] = parent
            wins[key] = sum(
                sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs
            )
    return metrics, parent_medians, wins


def trajectory_entry(
    samples: Mapping[str, List[Dict[str, Metrics]]],
    spec: Mapping[str, object],
    parent_sha: str,
    tree: str,
) -> HistoryEntry:
    """The trajectory line for one paired measurement."""
    metrics, parent_medians, wins = summarise(samples, spec["end_to_end"])
    return HistoryEntry(
        source="perfbench",
        run_id=f"tree-{tree[:12]}",
        metrics=metrics,
        meta={
            "pairs": min(len(p) for p in samples.values()),
            "nproc": len(os.sched_getaffinity(0)),
            "parent": parent_sha,
            "tree": tree,
            "run_seconds": spec["run_seconds"],
            "parent_medians": parent_medians,
            "wins": wins,
        },
    )


def benchmark_command(spec: Mapping[str, object]) -> List[str]:
    """The benchmark's command with every option but ``--workload``."""
    return [
        *spec["command"], "--seed", "1",
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Measure the working tree against ``--parent``; append one line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", default="HEAD",
        help="git ref of the parent commit to pair against (default HEAD)",
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tree = tree_hash()
    with tempfile.TemporaryDirectory() as tmp:
        parent_sha = extract(args.parent, pathlib.Path(tmp))
        samples = run_pairs(
            benchmark_command(spec),
            [w["name"] for w in spec["workloads"]],
            {"parent": pathlib.Path(tmp) / "tree", "change": ROOT},
        )
    entry = HistoryStore(str(ROOT / TRAJECTORY)).append(
        trajectory_entry(samples, spec, parent_sha, tree)
    )
    print(f"[trajectory: entry #{entry.seq}, {len(entry.metrics)} metrics in {TRAJECTORY}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
