"""Tests for the noisy-observation model and the robust decode mode."""

from __future__ import annotations

import pytest

from repro.apps.harness import ring_positions
from repro.errors import ModelError, ProtocolError, ReproError
from repro.geometry.vec import Vec2
from repro.model.looks import SensingNoise
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol

BITS = [1, 0, 1]


def build(noise: float, seed: int = 0, robust: bool = True):
    positions = ring_positions(5, radius=10.0, jitter=0.06)
    kwargs = {"off_home_fraction": 0.25, "tolerate_ambiguity": True} if robust else {}
    robots = [
        Robot(
            position=p,
            protocol=SyncGranularProtocol(**kwargs),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    return Simulator(robots, look=SensingNoise(noise, seed=seed)), robots


class TestSimulator:
    def test_noise_validated(self):
        with pytest.raises(ModelError):
            build(noise=-0.1)

    def test_zero_noise_is_exact(self):
        sim, robots = build(noise=0.0, robust=False)
        robots[0].protocol.send_bits(2, BITS)
        sim.run(2 * len(BITS) + 2)
        assert [e.bit for e in robots[2].protocol.received] == BITS

    def test_own_position_is_exact(self):
        """Odometry: a robot's view of itself carries no noise."""
        sim, robots = build(noise=0.5, seed=3)
        obs = sim._observe(1)
        true_local = robots[1].frame.to_local(sim.positions[1], sim.trace.initial_positions[1])
        assert obs.self_position == true_local

    def test_other_positions_are_noisy(self):
        sim, robots = build(noise=0.5, seed=3)
        obs = sim._observe(1)
        true_local = robots[1].frame.to_local(sim.positions[0], sim.trace.initial_positions[1])
        assert obs.position_of(0) != true_local

    def test_determinism(self):
        results = []
        for _ in range(2):
            sim, robots = build(noise=0.05, seed=9)
            robots[0].protocol.send_bits(2, BITS)
            sim.run(10)
            results.append(tuple(e.bit for e in robots[2].protocol.received))
        assert results[0] == results[1]


class TestRobustDecode:
    def test_params_validated(self):
        with pytest.raises(ProtocolError):
            SyncGranularProtocol(off_home_fraction=0.0)
        with pytest.raises(ProtocolError):
            SyncGranularProtocol(off_home_fraction=0.5, excursion_fraction=0.45)

    def test_moderate_noise_delivered(self):
        sim, robots = build(noise=0.05, seed=1, robust=True)
        robots[0].protocol.send_bits(2, BITS)
        sim.run(2 * len(BITS) + 2)
        assert [e.bit for e in robots[2].protocol.received] == BITS

    def test_exact_decode_breaks_under_noise(self):
        sim, robots = build(noise=0.05, seed=1, robust=False)
        robots[0].protocol.send_bits(2, BITS)
        broken = False
        try:
            sim.run(2 * len(BITS) + 2)
            broken = [e.bit for e in robots[2].protocol.received] != BITS
        except ReproError:
            broken = True
        assert broken

    def test_no_phantom_bits_when_idle(self):
        """Moderate noise on a fully idle swarm produces zero events."""
        sim, robots = build(noise=0.05, seed=4, robust=True)
        sim.run(40)
        for robot in robots:
            assert robot.protocol.overheard == ()
