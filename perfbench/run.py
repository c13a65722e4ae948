"""The repository benchmark: one workload per run, checked and timed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload swarm_n64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

A run repeats the workload's iteration (set-up, run, output checks)
until ``--seconds`` have passed and the workload's minimum iteration
count is met.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics, writing the spans to
``.perfbench/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier
lines describe the run and print a table.  The exit code is 0 only
when every output check passed.  ``--workload all`` runs every
workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import stats
from perfbench.common import ROOT, Iteration, Workload, clock, require_program
from perfbench.serving import SERVE_CHURN, SERVE_MIX
from perfbench.swarms import SPARSE_N10K, SWARM_N64, SWARM_N100K
from perfbench.trace import Tracer

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SWARM_N64, SWARM_N100K, SPARSE_N10K, SERVE_MIX, SERVE_CHURN)
}

#: the tail percentile every step-latency figure is reported at
TAIL = 90.0

#: end-to-end metrics (untraced runs), in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "activations_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs); times are self seconds per iteration
PER_LAYER = {
    "tracing.overhead_ratio": "ratio",
    "tracing.coverage": "ratio",
    "bench.failed_ratio": "ratio",
    "bench.unattributed_s": "s",
    "apps.harness.build_s": "s",
    "apps.harness.step_s": "s",
    "model.robot.build_s": "s",
    "model.simulator.build_s": "s",
    "model.simulator.schedule_s": "s",
    "model.simulator.compute_s": "s",
    "model.simulator.observe_s": "s",
    "model.simulator.decide_s": "s",
    "model.simulator.move_s": "s",
    "model.simulator.record_s": "s",
    "perf.cache_hit_rate": "ratio",
    "perf.observation_reuse_rate": "ratio",
    "perf.observations_built": "count",
    "channels.poll_s": "s",
    "channels.polls": "count",
    "channels.bits_per_s": "1/s",
    "batch.engine.build_s": "s",
    "batch.arrays.build_s": "s",
    "batch.kernel.build_s": "s",
    "batch.neighbors.nn_s": "s",
    "batch.engine.step_s": "s",
    "batch.kernel.decode_s": "s",
    "batch.kernel.moves_s": "s",
    "batch.sec_fallbacks": "count",
    "batch.neighbor_passes": "count",
    "events.engine.build_s": "s",
    "events.engine.step_s": "s",
    "events.engine.events": "count",
    "events.engine.heap_depth_max": "count",
    "events.engine.duty": "ratio",
    "serve.manager.start_s": "s",
    "serve.manager.queue_wait_p50_ms": "ms",
    "serve.manager.queue_wait_p90_ms": "ms",
    "serve.manager.execute_p90_ms": "ms",
    "serve.manager.dispatch_p90_ms": "ms",
    "serve.manager.ticks": "count",
    "serve.manager.requests_per_tick": "count",
    "serve.manager.rejections": "count",
    "serve.manager.evictions": "count",
    "serve.manager.restores": "count",
    "serve.manager.restore_p90_ms": "ms",
    "serve.host.step_batch_s": "s",
    "serve.session.build_s": "s",
    "serve.session.step_s": "s",
    "serve.session.replay_s": "s",
    "serve.session.restore_s": "s",
    "serve.session.checkpoint_s": "s",
    "serve.session.trace_crc_s": "s",
    "serve.session.replayed_instants": "count",
    "serve.session.useful_ratio": "ratio",
    "serve.store.save_s": "s",
    "serve.store.load_s": "s",
    "serve.store.checkpoint_bytes": "bytes",
    "serve.client.sessions_per_s": "1/s",
    "serve.client.step_p99_ms": "ms",
}

#: iteration-level counts copied (as per-iteration means) into the layer table
_COUNTS = (
    "perf.cache_hit_rate", "perf.observation_reuse_rate", "perf.observations_built",
    "batch.sec_fallbacks", "batch.neighbor_passes",
    "events.engine.events", "events.engine.heap_depth_max", "events.engine.duty",
    "serve.manager.rejections", "serve.manager.evictions", "serve.manager.restores",
    "serve.store.checkpoint_bytes",
)

#: RequestTracer span -> per-layer percentile metrics
_REQUEST_SPANS = {
    "queue-wait": (("serve.manager.queue_wait_p50_ms", 50.0),
                   ("serve.manager.queue_wait_p90_ms", 90.0)),
    "execute": (("serve.manager.execute_p90_ms", 90.0),),
    "dispatch": (("serve.manager.dispatch_p90_ms", 90.0),),
}


def describe(workload: Workload, params: Dict[str, object], args) -> Dict[str, object]:
    """The self-describing header of one run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "benchmark": "perfbench",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": params,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_iterations(workload: Workload, params, inputs, seconds: float, trace: bool):
    """Iterate for ``seconds``, and at least the workload's minimum count.

    Past the minimum, an iteration starts only if one as long as the
    last still ends within ``seconds``.  A traced run alternates
    untraced and traced iterations (untraced first) and needs at least
    one of each.
    """
    tracer = Tracer(run_id=f"{workload.name}-{os.getpid()}") if trace else None
    untraced: List[Iteration] = []
    traced: List[Iteration] = []
    minimum = max(workload.min_iterations, 2 if trace else 1)
    deadline = clock() + seconds
    last = 0.0
    while len(untraced) + len(traced) < minimum or clock() + last <= deadline:
        started = clock()
        if tracer is not None and len(traced) < len(untraced):
            root = tracer.open("bench.iteration")
            try:
                result = workload.iterate(inputs, params, tracer)
            finally:
                tracer.close(root)
            result.root = root
            traced.append(result)
        else:
            untraced.append(workload.iterate(inputs, params, None))
        last = clock() - started
    return untraced, traced, tracer


def _step_ms(iterations: Sequence[Iteration], q: float) -> float:
    samples = [s for it in iterations for s in it.steps]
    if not stats.supported(len(samples), q):
        raise ValueError(f"{len(samples)} step samples cannot support p{q:g}")
    return 1e3 * stats.percentile(samples, q)


def end_to_end(untraced: Sequence[Iteration]) -> Dict[str, float]:
    """The end-to-end metrics: medians over iterations, pooled step latency."""
    return {
        "setup_s": stats.median([s for it in untraced for s in it.setup_s]),
        "wall_s": stats.median([it.wall_s for it in untraced]),
        "activations_per_s": stats.median([it.activations / it.run_s for it in untraced]),
        "step_p50_ms": _step_ms(untraced, 50.0),
        "step_p90_ms": _step_ms(untraced, TAIL),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of a traced run (every name in ``PER_LAYER``)."""
    out = {name: 0.0 for name in PER_LAYER}
    count = len(traced)
    roots = [it.root for it in traced]
    for name, seconds in tracer.self_times(roots).items():
        metric = "bench.unattributed_s" if name == "bench.iteration" else f"{name}_s"
        if metric not in out:
            raise KeyError(f"span {name!r} has no per-layer metric")
        out[metric] = seconds / count
    out["channels.polls"] = tracer.counts.get("channels.poll", 0) / count
    replayed = tracer.counts.get("serve.session.replayed_instants", 0)
    useful = tracer.counts.get("serve.session.useful_instants", 0)
    out["serve.session.replayed_instants"] = replayed / count
    if useful + replayed:
        out["serve.session.useful_ratio"] = useful / (useful + replayed)

    everything = list(untraced) + list(traced)
    attempted = sum(it.checks.attempted for it in everything)
    failed = sum(it.checks.failed for it in everything)
    out["bench.failed_ratio"] = failed / attempted if attempted else 0.0
    out["tracing.overhead_ratio"] = (
        stats.median([it.wall_s for it in traced])
        / stats.median([it.wall_s for it in untraced])
    )
    out["tracing.coverage"] = stats.median([tracer.coverage(it.root, it.wall_s) for it in traced])
    for name in _COUNTS:
        values = [float(it.layer[name]) for it in traced if name in it.layer]
        if values:
            out[name] = sum(values) / len(values)

    # Rates seen by users come from the untraced iterations of the run.
    bits = [it.layer["channels.bits"] / it.run_s for it in untraced if "channels.bits" in it.layer]
    if bits:
        out["channels.bits_per_s"] = stats.median(bits)
    sessions = [it.layer["serve.client.sessions"] / it.run_s
                for it in untraced if "serve.client.sessions" in it.layer]
    if sessions:
        out["serve.client.sessions_per_s"] = stats.median(sessions)
        samples = [s for it in untraced for s in it.steps]
        if stats.supported(len(samples), 99.0):
            out["serve.client.step_p99_ms"] = 1e3 * stats.percentile(samples, 99.0)

    ticks = sum(1 for s in tracer.spans if s.name == "serve.host.step_batch")
    if ticks:
        requests = sum(int(it.layer["serve.client.step_requests"]) for it in traced)
        out["serve.manager.ticks"] = ticks / count
        out["serve.manager.requests_per_tick"] = requests / ticks
    restores = [1e3 * s.seconds for s in tracer.spans if s.name == "serve.session.restore"]
    if stats.supported(len(restores), 90.0):
        out["serve.manager.restore_p90_ms"] = stats.percentile(restores, 90.0)
    for span_name, metrics in _REQUEST_SPANS.items():
        samples = [x for it in traced for x in it.layer.get(f"requests.{span_name}", [])]
        for metric, q in metrics:
            if stats.supported(len(samples), q):
                out[metric] = 1e3 * stats.percentile(samples, q)
    return out


def print_table(title: str, metrics: Dict[str, float], units: Dict[str, str], notes=None) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:<36} {value:>16.6g} {units[name]}{note}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    params = {**workload.params, **(workload.tiny if args.tiny else {})}
    print(json.dumps({"run": describe(workload, params, args)}))
    inputs = workload.make_inputs(args.seed, params)
    untraced, traced, tracer = run_iterations(
        workload, params, inputs, float(args.seconds), bool(args.trace)
    )
    everything = untraced + traced
    attempted = sum(it.checks.attempted for it in everything)
    failed = sum(it.checks.failed for it in everything)
    failures = [f for it in everything for f in it.checks.failures]
    for failure in failures[:20]:
        print(f"FAILED: {failure}")

    steps = sum(len(it.steps) for it in untraced)
    if tracer is None:
        metrics = end_to_end(untraced)
        units = END_TO_END
        notes = {
            "setup_s": f"median of {sum(len(it.setup_s) for it in untraced)} set-ups",
            "wall_s": "median of " + ", ".join(f"{it.wall_s:.3f}" for it in untraced),
            "activations_per_s": f"median of {len(untraced)} iterations",
            "step_p50_ms": f"{steps} steps",
            "step_p90_ms": f"{steps} steps",
        }
    else:
        metrics = per_layer(untraced, traced, tracer)
        units = PER_LAYER
        notes = {"tracing.coverage": f"{len(traced)} traced, {len(untraced)} untraced iterations"}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{tracer.run_id}.jsonl"))
    print_table(f"{workload.name} seed={args.seed}", metrics, units, notes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process; the last line sums the checks."""
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {done.returncode})")
            correct = False
            continue
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": {}}))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a seconds-long smoke size")
    args = parser.parse_args(argv)
    require_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
