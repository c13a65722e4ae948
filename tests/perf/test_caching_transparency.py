"""Semantic transparency: caching on and off yield bit-identical runs.

Each scenario builds two structurally identical simulations with the
same seeds — one with the hot-path caches enabled, one without — and
asserts that the recorded traces (and delivered bits, where traffic
flows) are exactly equal, element by element.  Covered variants: the
base synchronous engine, a fair-asynchronous schedule, CORDA-style
bounded-stale looks, visibility-limited swarms, and noisy sensing.
"""

from __future__ import annotations

from typing import List

from repro.channels.transport import MovementChannel
from repro.apps.harness import SwarmHarness, ring_positions
from repro.geometry.vec import Vec2
from repro.model.looks import SensingNoise, StaleLook
from repro.model.robot import Robot
from repro.model.scheduler import FairAsynchronousScheduler
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.visibility.flooding import FloodRouter
from repro.visibility.protocol import LocalGranularProtocol


def assert_traces_identical(a: Simulator, b: Simulator) -> None:
    assert a.trace.initial_positions == b.trace.initial_positions
    assert len(a.trace.steps) == len(b.trace.steps)
    for left, right in zip(a.trace.steps, b.trace.steps):
        assert left == right


def received_bits(sim: Simulator, index: int) -> List[tuple]:
    return [(e.time, e.src, e.dst, e.bit) for e in sim.protocol_of(index).received]


class TestSynchronous:
    def test_sync_granular_trace_equivalence(self):
        def build(caching: bool) -> SwarmHarness:
            h = SwarmHarness(
                ring_positions(8, radius=10.0, jitter=0.06),
                protocol_factory=lambda: SyncGranularProtocol(),
                sigma=4.0,
                caching=caching,
            )
            h.simulator.protocol_of(0).send_bits(4, [1, 0, 1, 1])
            return h

        cached, uncached = build(True), build(False)
        cached.run(20)
        uncached.run(20)
        assert_traces_identical(cached.simulator, uncached.simulator)
        assert received_bits(cached.simulator, 4) == received_bits(uncached.simulator, 4)
        assert received_bits(cached.simulator, 4)  # traffic actually flowed

    def test_equivalence_across_displacement(self):
        def run(caching: bool) -> Simulator:
            h = SwarmHarness(
                ring_positions(6, radius=10.0, jitter=0.06),
                protocol_factory=lambda: SyncGranularProtocol(),
                sigma=4.0,
                caching=caching,
            )
            h.simulator.protocol_of(0).send_bits(3, [1, 0])
            h.run(5)
            h.simulator.displace(2, Vec2(30.0, 30.0))
            h.run(5)
            return h.simulator

        assert_traces_identical(run(True), run(False))


class TestAsynchronous:
    def test_fair_async_trace_equivalence(self):
        from repro.protocols.async_n import AsyncNProtocol

        def build(caching: bool) -> SwarmHarness:
            h = SwarmHarness(
                ring_positions(4, radius=10.0, jitter=0.07),
                protocol_factory=lambda: AsyncNProtocol(naming="sec"),
                scheduler=FairAsynchronousScheduler(fairness_bound=3, seed=1),
                identified=False,
                frame_regime="chirality",
                sigma=4.0,
                caching=caching,
            )
            h.simulator.protocol_of(0).send_bits(3, [1, 0])
            return h

        cached, uncached = build(True), build(False)
        cached.run(400)
        uncached.run(400)
        assert_traces_identical(cached.simulator, uncached.simulator)
        assert received_bits(cached.simulator, 3) == received_bits(uncached.simulator, 3)


class TestCordaStale:
    def test_stale_look_trace_equivalence(self):
        def run(caching: bool) -> Simulator:
            robots = [
                Robot(
                    position=p,
                    protocol=SyncGranularProtocol(dilation=3),
                    sigma=4.0,
                    observable_id=i,
                )
                for i, p in enumerate(ring_positions(6, radius=10.0, jitter=0.06))
            ]
            sim = Simulator(robots, caching=caching, look=StaleLook(2, seed=7))
            robots[0].protocol.send_bits(3, [1, 0, 1])
            sim.run(40)
            return sim

        cached, uncached = run(True), run(False)
        assert_traces_identical(cached, uncached)
        assert received_bits(cached, 3) == received_bits(uncached, 3)
        assert received_bits(cached, 3)


class TestVisibilityLimited:
    RADIUS = 12.0

    def _positions(self) -> List[Vec2]:
        # A short chain: consecutive robots are mutually visible,
        # endpoints are not.
        return [Vec2(0.0, 0.0), Vec2(8.0, 1.0), Vec2(16.0, 0.0), Vec2(24.0, 1.0)]

    def test_visibility_trace_equivalence(self):
        def run(caching: bool) -> Simulator:
            robots = [
                Robot(
                    position=p,
                    protocol=LocalGranularProtocol(),
                    sigma=4.0,
                    observable_id=i,
                )
                for i, p in enumerate(self._positions())
            ]
            sim = Simulator(
                robots, visibility_radius=self.RADIUS, caching=caching
            )
            routers = [FloodRouter(MovementChannel(r.protocol)) for r in robots]
            routers[0].send(3, b"x")
            for _ in range(6000):
                sim.step()
                for router in routers:
                    router.pump(sim.time)
                if routers[3].inbox:
                    break
            assert routers[3].inbox, "flooded payload should arrive"
            return sim

        assert_traces_identical(run(True), run(False))


class TestNoisySensing:
    def test_noise_trace_equivalence(self):
        def run(caching: bool) -> Simulator:
            robots = [
                Robot(
                    position=p,
                    protocol=SyncGranularProtocol(
                        off_home_fraction=0.25, tolerate_ambiguity=True
                    ),
                    sigma=4.0,
                    observable_id=i,
                )
                for i, p in enumerate(ring_positions(5, radius=10.0, jitter=0.06))
            ]
            sim = Simulator(robots, caching=caching, look=SensingNoise(0.05, seed=11))
            robots[0].protocol.send_bits(2, [1, 0, 1])
            sim.run(12)
            return sim

        cached, uncached = run(True), run(False)
        assert_traces_identical(cached, uncached)
        assert received_bits(cached, 2) == received_bits(uncached, 2)
