"""The three swarm workloads: scalar rounds, batch kernel, event engine.

Each workload draws its inputs from the seed alone (positions, flows,
payloads) and hands only those to the program's public entry points:
``SwarmHarness`` for the scalar engine, ``BatchSimulator`` for the
batch kernel and ``EventSimulator`` for the event engine.
"""

from __future__ import annotations

import gc
import math
import random
from typing import Dict, List, Optional, Tuple

from perfbench.common import Checks, Iteration, Workload, clock, span
from perfbench.trace import Tracer

__all__ = ["SWARM_N64", "SWARM_N100K", "SPARSE_N10K"]


def _grid_positions(rng: random.Random, n: int) -> List[Tuple[float, float]]:
    """``n`` points on a 10-unit grid, jittered by up to 2 units."""
    side = int(math.ceil(math.sqrt(n)))
    points = []
    for i in range(n):
        row, col = divmod(i, side)
        points.append(
            (col * 10.0 + rng.uniform(-2.0, 2.0), row * 10.0 + rng.uniform(-2.0, 2.0))
        )
    return points


def _bit_cadence(events, src: int, bits: List[int]) -> Tuple[bool, bool]:
    """(bits arrived in order, consecutive bits exactly 2 instants apart)."""
    mine = [e for e in events if e.src == src]
    arrived = [e.bit for e in mine] == list(bits)
    times = [e.time for e in mine]
    return arrived, all(b - a == 2 for a, b in zip(times, times[1:]))


# ----------------------------------------------------------------------
# swarm_n64: the paper's own use, on the scalar round engine
# ----------------------------------------------------------------------

def _n64_inputs(seed: int, p: Dict[str, object]) -> Dict[str, object]:
    rng = random.Random(seed)
    order = list(range(int(p["n"])))
    rng.shuffle(order)
    flows = [
        (order[2 * k], order[2 * k + 1],
         bytes(rng.getrandbits(8) for _ in range(int(p["payload_bytes"]))))
        for k in range(int(p["flows"]))
    ]
    return {"seed": seed, "flows": flows}


def _n64_iterate(inputs, p, tracer: Optional[Tracer]) -> Iteration:
    from repro.apps.harness import SwarmHarness, ring_positions
    from repro.channels.transport import MovementChannel
    from repro.coding.bitstream import encode_message
    from repro.protocols.sync_granular import SyncGranularProtocol

    if tracer is not None:
        import repro.apps.harness as harness_module

        tracer.patch_span(harness_module, "make_simulator", "model.simulator.build")
        tracer.patch_leaf(MovementChannel, "poll", "channels.poll")
    try:
        n = int(p["n"])
        flows = inputs["flows"]
        checks = Checks()
        started = clock()
        with span(tracer, "apps.harness.build"):
            harness = SwarmHarness(
                ring_positions(n, jitter=float(p["jitter"])),
                protocol_factory=SyncGranularProtocol,
                sigma=float(p["sigma"]),
                frame_seed=int(inputs["seed"]),
            )
        setup_s = clock() - started
        if tracer is not None:
            harness.simulator.set_phase_hook(tracer.phase_hook)

        run_started = clock()
        for src, dst, payload in flows:
            harness.channel(src).send(dst, payload)
        pending = {dst for _, dst, _ in flows}
        steps: List[float] = []
        limit = int(p["max_instants"])
        # One step is one bit period: every sender moves out and back.
        # Single instants alternate between two cost levels, so their
        # median would sit on the edge between the two.
        while pending and 2 * len(steps) < limit:
            t0 = clock()
            with span(tracer, "apps.harness.step"):
                harness.run(2)
            steps.append(clock() - t0)
            pending = {d for d in pending if not harness.channel(d).inbox}
        run_s = clock() - run_started
        instants = 2 * len(steps)

        framed = 0
        for src, dst, payload in flows:
            inbox = harness.channel(dst).inbox
            checks.expect(
                [(m.src, m.payload) for m in inbox] == [(src, payload)],
                f"payload {src}->{dst} not delivered byte-exact",
            )
            bits = encode_message(payload)
            framed = max(framed, len(bits))
            received = harness.simulator.protocol_of(dst).received
            arrived, paced = _bit_cadence(received, src, bits)
            checks.expect(arrived and paced, f"flow {src}->{dst}: not 2 instants per bit")
        checks.expect(
            instants == 2 * framed,
            f"{instants} instants for {framed} framed bits (expected 2 per bit)",
        )
        stats = harness.simulator.stats
        return Iteration(
            setup_s=[setup_s],
            wall_s=clock() - started,
            run_s=run_s,
            activations=n * instants,
            steps=steps,
            checks=checks,
            layer={
                "perf.cache_hit_rate": stats.hit_rate,
                "perf.observation_reuse_rate": stats.observation_reuse_rate,
                "perf.observations_built": stats.observations_built,
                "channels.bits": 8 * sum(len(f[2]) for f in flows),
            },
        )
    finally:
        if tracer is not None:
            tracer.unpatch()


SWARM_N64 = Workload(
    name="swarm_n64",
    params={"n": 64, "jitter": 0.06, "sigma": 4.0, "flows": 16,
            "payload_bytes": 8, "max_instants": 2_000},
    tiny={"n": 8, "flows": 2, "payload_bytes": 3},
    min_iterations=3,
    make_inputs=_n64_inputs,
    iterate=_n64_iterate,
)


# ----------------------------------------------------------------------
# swarm_n100k: the batch kernel at 100,000 robots (set-up dominates)
# ----------------------------------------------------------------------

def _grid_inputs(seed: int, p: Dict[str, object]) -> Dict[str, object]:
    rng = random.Random(seed)
    n = int(p["n"])
    positions = _grid_positions(rng, n)
    sender = rng.randrange(n)
    dst = rng.randrange(n - 1)
    dst += dst >= sender
    bits = [rng.getrandbits(1) for _ in range(int(p["bits"]))]
    return {"seed": seed, "positions": positions, "sender": sender,
            "dst": dst, "bits": bits}


def _n100k_iterate(inputs, p, tracer: Optional[Tracer]) -> Iteration:
    from repro.batch.engine import BatchSimulator
    from repro.geometry.frames import make_frames
    from repro.geometry.vec import Vec2
    from repro.model.robot import Robot
    from repro.model.trace import TracePolicy
    from repro.protocols.sync_granular import SyncGranularProtocol

    if tracer is not None:
        import repro.batch.engine as engine_module
        import repro.batch.kernel as kernel_module

        tracer.patch_span(engine_module, "SwarmArrays", "batch.arrays.build")
        tracer.patch_span(engine_module, "GranularKernel", "batch.kernel.build")
        tracer.patch_span(kernel_module, "nearest_neighbor_sq", "batch.neighbors.nn")
        tracer.patch_leaf(kernel_module.GranularKernel, "decode", "batch.kernel.decode")
        tracer.patch_leaf(kernel_module.GranularKernel, "compute_moves", "batch.kernel.moves")
    try:
        checks = Checks()
        seed = int(inputs["seed"])
        positions = inputs["positions"]
        started = clock()
        with span(tracer, "model.robot.build"):
            frames = make_frames(len(positions), "sense_of_direction", seed=seed)
            robots = [
                Robot(
                    position=Vec2(x, y),
                    protocol=SyncGranularProtocol(naming="identified"),
                    frame=frames[i],
                    sigma=float(p["sigma"]),
                    observable_id=i,
                )
                for i, (x, y) in enumerate(positions)
            ]
        with span(tracer, "batch.engine.build"):
            sim = BatchSimulator(robots, trace_policy=TracePolicy(stride=1_000))
        setup_s = clock() - started

        run_started = clock()
        sender, dst, bits = inputs["sender"], inputs["dst"], inputs["bits"]
        sim.protocol_of(sender).send_bits(dst, bits)
        steps: List[float] = []
        for _ in range(int(p["instants"])):
            t0 = clock()
            with span(tracer, "batch.engine.step"):
                sim.run(1)
            steps.append(clock() - t0)
        run_s = clock() - run_started

        checks.expect(sim.mode == "kernel", f"batch engine ran in {sim.mode} mode")
        arrived, paced = _bit_cadence(sim.protocol_of(dst).received, sender, bits)
        checks.expect(arrived, f"bits {sender}->{dst} not delivered")
        checks.expect(paced, f"bits {sender}->{dst}: not 2 instants per bit")
        registry = sim.stats.registry
        layer = {
            "batch.sec_fallbacks": registry.counter("batch_sec_fallbacks").value,
            "batch.neighbor_passes": registry.counter("batch_neighbor_passes").value,
            "perf.cache_hit_rate": sim.stats.hit_rate,
            "perf.observation_reuse_rate": sim.stats.observation_reuse_rate,
            "perf.observations_built": sim.stats.observations_built,
            "channels.bits": len(bits),
        }
        wall_s = clock() - started
        activations = len(positions) * len(steps)
        del sim, robots, frames
        gc.collect()
        return Iteration(
            setup_s=[setup_s],
            wall_s=wall_s,
            run_s=run_s,
            activations=activations,
            steps=steps,
            checks=checks,
            layer=layer,
        )
    finally:
        if tracer is not None:
            tracer.unpatch()


SWARM_N100K = Workload(
    name="swarm_n100k",
    params={"n": 100_000, "sigma": 12.0, "bits": 4, "instants": 100},
    tiny={"n": 400, "instants": 60},
    min_iterations=2,
    make_inputs=_grid_inputs,
    iterate=_n100k_iterate,
)


# ----------------------------------------------------------------------
# sparse_n10k: the event engine, free-running at 1% duty
# ----------------------------------------------------------------------

#: unit Look/Compute/Move phases: 3 active time units per cycle
ACTIVE_SPAN = 3.0
DUTY = 0.01
GAP_MEAN = ACTIVE_SPAN * (1.0 - DUTY) / DUTY


def _idle_protocol_class():
    from repro.model.protocol import Protocol

    class IdleProtocol(Protocol):
        """Decode nothing, stay put: the engine's own cost only."""

        def _decode(self, observation):
            return []

        def _compute(self, observation):
            return observation.self_position

    return IdleProtocol


def _sparse_inputs(seed: int, p: Dict[str, object]) -> Dict[str, object]:
    rng = random.Random(seed)
    return {"seed": seed, "positions": _grid_positions(rng, int(p["n"]))}


def _sparse_iterate(inputs, p, tracer: Optional[Tracer]) -> Iteration:
    from repro.events.distributions import Deterministic, Exponential
    from repro.events.engine import EventSimulator
    from repro.events.timing import TimingModel
    from repro.geometry.frames import make_frames
    from repro.geometry.vec import Vec2
    from repro.model.robot import Robot
    from repro.model.trace import TracePolicy
    from repro.obs.registry import MetricsRegistry

    idle = _idle_protocol_class()
    checks = Checks()
    seed = int(inputs["seed"])
    positions = inputs["positions"]
    n = len(positions)
    started = clock()
    with span(tracer, "model.robot.build"):
        frames = make_frames(n, "sense_of_direction", seed=seed)
        robots = [
            Robot(position=Vec2(x, y), protocol=idle(), frame=frames[i],
                  sigma=1.0, observable_id=i)
            for i, (x, y) in enumerate(positions)
        ]
    registry = MetricsRegistry()
    timing = TimingModel.free(
        look=Deterministic(1.0),
        compute=Deterministic(1.0),
        move=Deterministic(1.0),
        gap=Exponential(mean=GAP_MEAN),
        max_gap=4.0 * GAP_MEAN,
        activate_all_first=False,
    )
    with span(tracer, "events.engine.build"):
        sim = EventSimulator(
            robots,
            None,
            timing=timing,
            seed=seed,
            registry=registry,
            visibility_radius=float(p["radius"]),
            lazy_views=True,
            trace_policy=TracePolicy(stride=1_000),
        )
    setup_s = clock() - started

    run_started = clock()
    budget = int(p["events"])
    steps: List[float] = []
    while sim.events_processed < budget:
        t0 = clock()
        with span(tracer, "events.engine.step"):
            sim.step()
        steps.append(clock() - t0)
    run_s = clock() - run_started

    moves = registry.counter("event_count", phase="move").value
    duty = moves * ACTIVE_SPAN / (n * sim.clock) if sim.clock > 0 else 0.0
    heap_max = registry.gauge("event_heap_depth_max").value
    checks.expect(sim.events_processed >= budget, "event budget not reached")
    checks.expect(0.005 <= duty <= 0.02, f"duty {duty:.4f} outside [0.005, 0.02]")
    checks.expect(heap_max <= n + 10, f"heap depth {heap_max} above n + 10")
    return Iteration(
        setup_s=[setup_s],
        wall_s=clock() - started,
        run_s=run_s,
        activations=int(moves),
        steps=steps,
        checks=checks,
        layer={
            "events.engine.events": sim.events_processed,
            "events.engine.heap_depth_max": heap_max,
            "events.engine.duty": duty,
            "perf.cache_hit_rate": sim.stats.hit_rate,
            "perf.observation_reuse_rate": sim.stats.observation_reuse_rate,
            "perf.observations_built": sim.stats.observations_built,
        },
    )


SPARSE_N10K = Workload(
    name="sparse_n10k",
    params={"n": 10_000, "radius": 25.0, "events": 30_000},
    tiny={"n": 300, "events": 900},
    min_iterations=3,
    make_inputs=_sparse_inputs,
    iterate=_sparse_iterate,
)
