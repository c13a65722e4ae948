"""Experiment E1 — event-engine throughput under sparse activation.

The round engine charges every robot every instant: a swarm where
almost everyone is asleep costs the same as one where everyone is
busy.  The event engine (:mod:`repro.events`) charges *per event*, so
a sparse swarm — here n=10,000 robots at a ~1% duty cycle (unit
Look/Compute/Move phases separated by a mean-297 exponential gap) —
should process events at a rate independent of how many robots are
currently idle.

The n=10,000 workload itself is the repo benchmark's ``sparse_n10k``
(``perfbench/run.py``), built from :func:`sparse_swarm` and
:func:`_sparse_timing`; its duty and heap-depth bounds are checked at
n=2,000 by ``tests/events``.

The engine-parametrized table cell compares the event engine against
the round engine on a duty-matched workload at equal n: the round
engine's cost per activation *includes* all the idle robots, the
event engine's does not — the gap is the point of the experiment.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

# Support running as a standalone script (python benchmarks/bench_x.py).
if __package__ in (None, ""):
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.support import print_table, table_cells
from repro.model.observation import Observation
from repro.model.protocol import BitEvent, Protocol


class _IdleProtocol(Protocol):
    """Decode nothing, go nowhere: pure engine-overhead ballast."""

    def _decode(self, observation: Observation) -> List[BitEvent]:
        return []

    def _compute(self, observation: Observation):
        return observation.self_position


#: Unit phases: 3 active time units per cycle; the exponential gap's
#: mean is chosen so active/(active+gap) = 1% duty.
ACTIVE_SPAN = 3.0
DUTY = 0.01
GAP_MEAN = ACTIVE_SPAN * (1.0 - DUTY) / DUTY  # = 297.0
#: Fairness clamp: no robot sleeps longer than this between cycles.
MAX_GAP = 4.0 * GAP_MEAN
#: Limited visibility radius (world units; grid pitch is 10).
RADIUS = 25.0


def sparse_swarm(n: int, seed: int = 0) -> list:
    """n idle robots on a jittered grid (pairwise well separated).

    The protocol is deliberately trivial — decode nothing, stay put —
    so the benchmark measures *engine* overhead (heap, snapshots,
    bookkeeping), not protocol work.
    """
    import math
    import random

    from repro.geometry.frames import make_frames
    from repro.geometry.vec import Vec2
    from repro.model.robot import Robot

    rng = random.Random(seed)
    side = int(math.ceil(math.sqrt(n)))
    frames = make_frames(n, "sense_of_direction", seed=seed)
    robots = []
    for i in range(n):
        row, col = divmod(i, side)
        position = Vec2(
            col * 10.0 + rng.uniform(-2.0, 2.0),
            row * 10.0 + rng.uniform(-2.0, 2.0),
        )
        robots.append(
            Robot(
                position=position,
                protocol=_IdleProtocol(),
                frame=frames[i],
                sigma=1.0,
                observable_id=i,
            )
        )
    return robots


def _sparse_timing():
    from repro.events.distributions import Deterministic, Exponential
    from repro.events.timing import TimingModel

    return TimingModel.free(
        look=Deterministic(1.0),
        compute=Deterministic(1.0),
        move=Deterministic(1.0),
        gap=Exponential(mean=GAP_MEAN),
        max_gap=MAX_GAP,
        # Waking everyone at t=0 would make the first "round" dense;
        # staggered first Looks keep the workload sparse from the start.
        activate_all_first=False,
    )


def sparse_probe(
    n: int = 10_000, events: int = 30_000, seed: int = 0
) -> Dict[str, object]:
    """Drive n sparse robots through ``events`` heap events; time it.

    Uses the event engine's huge-swarm construction path (spatial-hash
    limited visibility + lazy initial views: O(n) setup) and a live
    :class:`~repro.obs.registry.MetricsRegistry` for the event counts
    and the peak heap depth.
    """
    from repro.events.engine import EventSimulator
    from repro.model.trace import TracePolicy
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    started = time.perf_counter()
    sim = EventSimulator(
        sparse_swarm(n, seed=seed),
        None,
        timing=_sparse_timing(),
        seed=seed,
        registry=registry,
        visibility_radius=RADIUS,
        lazy_views=True,
        trace_policy=TracePolicy(stride=1_000),
    )
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    steps = 0
    while sim.events_processed < events:
        sim.step()
        steps += 1
    run_s = time.perf_counter() - started
    # Achieved duty: fraction of robot-time spent in a phase.  Each
    # popped move closes one 3-unit cycle; duty ~= cycles * span / (n * clock).
    moves = registry.counter("event_count", phase="move").value
    duty = moves * ACTIVE_SPAN / (n * sim.clock) if sim.clock > 0 else 0.0
    return {
        "n": n,
        "seed": seed,
        "engine": "events",
        "events": sim.events_processed,
        "steps": steps,
        "clock": sim.clock,
        "build_s": build_s,
        "run_s": run_s,
        "events_per_sec": sim.events_processed / run_s if run_s > 0 else 0.0,
        "duty": duty,
        "heap_depth_max": registry.gauge("event_heap_depth_max").value,
    }


def duty_matched_cell(
    engine: str = "events", n: int = 1_000, seed: int = 0
) -> Dict[str, object]:
    """One duty-matched workload on one engine; the comparison cell.

    * ``events``: free-running timing at DUTY, as in :func:`sparse_probe`.
    * ``rounds``: the classic engine under a fair-async scheduler with
      ``activation_probability=DUTY`` — the closest round-stepped
      analogue of the same workload.

    Both report "activations per wall-clock second": the number of
    robot cycles the engine completed, divided by run time.  The round
    engine also pays for every idle robot every instant, which is the
    asymmetry the table shows.
    """
    if engine == "events":
        row = sparse_probe(n=n, events=6 * max(n // 10, 100), seed=seed)
        activations = row["events"] / 3.0
        return {
            "engine": "events",
            "n": n,
            "activations": activations,
            "run_s": row["run_s"],
            "activations_per_sec": (
                activations / row["run_s"] if row["run_s"] > 0 else 0.0
            ),
            "duty": row["duty"],
        }
    if engine != "rounds":
        raise ValueError(f"unknown engine {engine!r}")

    from repro.batch import make_simulator
    from repro.model.scheduler import FairAsynchronousScheduler
    from repro.model.trace import TracePolicy

    scheduler = FairAsynchronousScheduler(
        fairness_bound=int(MAX_GAP),
        activation_probability=DUTY,
        seed=seed,
        activate_all_first=False,
    )
    sim = make_simulator(
        sparse_swarm(n, seed=seed),
        scheduler,
        trace_policy=TracePolicy(stride=1_000),
    )
    steps = 2 * max(n // 10, 100)
    started = time.perf_counter()
    sim.run(steps)
    run_s = time.perf_counter() - started
    activations = sum(sim.protocol_of(i).activations for i in range(n))
    return {
        "engine": "rounds",
        "n": n,
        "activations": activations,
        "run_s": run_s,
        "activations_per_sec": activations / run_s if run_s > 0 else 0.0,
        "duty": activations / (n * steps) if steps else 0.0,
    }


def test_duty_matched_engines_agree_on_duty(benchmark):
    rows = benchmark.pedantic(
        lambda: [duty_matched_cell(engine=e, n=400) for e in ("events", "rounds")],
        rounds=1,
        iterations=1,
    )
    for row in rows:
        assert 0.001 < row["duty"] < 0.05, row
        assert row["activations"] > 0


def main(argv: Optional[List[str]] = None) -> int:
    """Regenerate the E1 duty-matched table."""
    import argparse

    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    rows = [
        duty_matched_cell(engine=engine, n=1_000)
        for engine in ("events", "rounds")
    ]
    print_table(
        "E1 — duty-matched sparse swarm, per-engine cost (n=1000, ~1% duty)",
        ["engine", "activations", "run s", "activations/s", "duty"],
        [
            (r["engine"], int(r["activations"]), round(r["run_s"], 3),
             int(r["activations_per_sec"]), f"{r['duty']:.2%}")
            for r in rows
        ],
    )
    return 0


def _table_main() -> None:
    main([])


# The campaign engine's import-based entry points (no exec).  The
# duty-matched comparison parametrizes over ``engine=`` exactly like
# the batch benchmarks parametrize over ``backend=``.
cells, run_cell = table_cells(
    ("sparse", duty_matched_cell, {"engine": ("events", "rounds")}),
    main=_table_main,
)


if __name__ == "__main__":
    raise SystemExit(main())
