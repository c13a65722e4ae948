"""Tests for the CORDA-style stale-look model and phase dilation."""

from __future__ import annotations

from typing import List

import pytest

from repro.apps.harness import ring_positions
from repro.errors import ModelError, ProtocolError
from repro.geometry.vec import Vec2
from repro.model.looks import StaleLook
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol

BITS = [1, 0, 1, 0, 1]


def build(delay: int, dilation: int, seed: int = 0) -> tuple:
    positions = ring_positions(5, radius=10.0, jitter=0.06)
    robots = [
        Robot(
            position=p,
            protocol=SyncGranularProtocol(dilation=dilation),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    sim = Simulator(robots, look=StaleLook(delay, seed=seed))
    return sim, robots


def run_transfer(delay: int, dilation: int, seed: int = 0) -> List[int]:
    sim, robots = build(delay, dilation, seed)
    robots[0].protocol.send_bits(2, BITS)
    sim.run(2 * dilation * len(BITS) + 2 * delay + 10)
    return [e.bit for e in robots[2].protocol.received]


class TestSimulator:
    def test_delay_validated(self):
        positions = [Vec2(0, 0), Vec2(10, 0)]
        robots = [
            Robot(position=p, protocol=SyncGranularProtocol(), observable_id=i)
            for i, p in enumerate(positions)
        ]
        with pytest.raises(ModelError):
            Simulator(robots, look=StaleLook(-1))

    def test_zero_delay_is_ssm(self):
        assert run_transfer(delay=0, dilation=1) == BITS

    def test_look_times_monotone_and_bounded(self):
        sim, robots = build(delay=3, dilation=1, seed=7)
        previous = [0] * 5
        for _ in range(60):
            sim.step()
            for i in range(5):
                look = sim.look.look_time_of(i)
                assert look >= previous[i]
                assert look >= sim.time - 1 - 3  # bounded lag
                previous[i] = look

    def test_dilation_validated(self):
        with pytest.raises(ProtocolError):
            SyncGranularProtocol(dilation=0)


class TestStalenessBreaksBaseProtocol:
    """The open-problem side: lag >= 1 garbles undilated transmission."""

    @pytest.mark.parametrize("delay", [1, 2, 4])
    def test_bits_lost_or_garbled(self, delay):
        failures = 0
        for seed in range(10):
            if run_transfer(delay=delay, dilation=1, seed=seed) != BITS:
                failures += 1
        assert failures > 5  # breaks on most schedules


class TestDilationRepairs:
    """The positive result: dilation d+1 tolerates lag d."""

    @pytest.mark.parametrize("delay", [1, 2, 4])
    def test_matched_dilation_delivers(self, delay):
        for seed in range(10):
            assert run_transfer(delay=delay, dilation=delay + 1, seed=seed) == BITS

    def test_overprovisioned_dilation_also_fine(self):
        assert run_transfer(delay=1, dilation=4, seed=3) == BITS

    def test_dilation_under_ssm_just_slows_down(self):
        sim, robots = build(delay=0, dilation=3)
        robots[0].protocol.send_bits(2, [1, 0])
        sim.run(2 * 3 * 2 + 2)
        assert [e.bit for e in robots[2].protocol.received] == [1, 0]
        # Cost: 2 * dilation instants per bit.
        moves = sim.trace.movements_of(0)
        assert len(moves) == 4  # still 2 position changes per bit

    def test_undermatched_dilation_insufficient(self):
        """Dilation d tolerates only d-1 of lag; at lag d it can fail."""
        failures = 0
        for seed in range(15):
            if run_transfer(delay=3, dilation=2, seed=seed) != BITS:
                failures += 1
        assert failures > 0
