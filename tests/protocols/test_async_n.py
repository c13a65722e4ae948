"""Tests for the n-robot asynchronous protocol (Section 4.2, Figure 6)."""

from __future__ import annotations

import pytest

from repro.apps.harness import SwarmHarness, ring_positions
from repro.errors import ProtocolError
from repro.model.scheduler import (
    FairAsynchronousScheduler,
    RoundRobinScheduler,
    SynchronousScheduler,
)
from repro.protocols.async_n import AsyncNProtocol

from tests.conftest import make_harness


def swarm(
    count: int = 4,
    naming: str = "sec",
    seed: int = 0,
    scheduler=None,
    frame_regime: str = "chirality",
    identified: bool = False,
) -> SwarmHarness:
    if scheduler is None:
        scheduler = FairAsynchronousScheduler(fairness_bound=3, seed=seed)
    return make_harness(
        count,
        lambda: AsyncNProtocol(naming=naming),  # type: ignore[arg-type]
        scheduler=scheduler,
        identified=identified,
        frame_regime=frame_regime,
        sigma=4.0,
    )


def deliver(h: SwarmHarness, src: int, dst: int, bits, max_steps: int = 120_000):
    h.simulator.protocol_of(src).send_bits(dst, bits)

    def done(hh):
        return len(hh.simulator.protocol_of(dst).received) >= len(bits)

    assert h.pump(done, max_steps=max_steps), (
        f"only {len(h.simulator.protocol_of(dst).received)}/{len(bits)} bits arrived"
    )
    got = [e.bit for e in h.simulator.protocol_of(dst).received]
    assert got == list(bits)


class TestValidation:
    def test_ack_threshold(self):
        with pytest.raises(ProtocolError):
            AsyncNProtocol(ack_threshold=0)

    def test_robust_knobs_validated(self):
        with pytest.raises(ProtocolError):
            AsyncNProtocol(off_center_fraction=0.0)
        with pytest.raises(ProtocolError):
            AsyncNProtocol(off_center_fraction=0.5)  # >= kappa band
        with pytest.raises(ProtocolError):
            AsyncNProtocol(change_fraction=0.4)


class TestNoiseRobustMode:
    def test_delivery_under_sensing_noise(self):
        from repro.model.looks import SensingNoise
        from repro.model.robot import Robot
        from repro.model.simulator import Simulator

        positions = ring_positions(4, radius=10.0, jitter=0.07)
        robots = [
            Robot(
                position=p,
                protocol=AsyncNProtocol(
                    naming="identified",
                    off_center_fraction=0.1,
                    change_fraction=0.02,
                    tolerate_ambiguity=True,
                ),
                sigma=4.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]
        sim = Simulator(
            robots,
            FairAsynchronousScheduler(fairness_bound=3, seed=2),
            look=SensingNoise(0.05, seed=2),
        )
        robots[0].protocol.send_bits(2, [1, 0])
        for _ in range(50_000):
            sim.step()
            if len(robots[2].protocol.received) >= 2:
                break
        assert [e.bit for e in robots[2].protocol.received] == [1, 0]

    def test_robust_mode_exact_sensing_still_works(self):
        h = swarm(count=4, seed=4)
        h2 = make_harness(
            4,
            lambda: AsyncNProtocol(
                naming="sec",
                off_center_fraction=0.1,
                change_fraction=0.02,
                tolerate_ambiguity=True,
            ),
            scheduler=FairAsynchronousScheduler(fairness_bound=3, seed=4),
            identified=False,
            frame_regime="chirality",
            sigma=4.0,
        )
        deliver(h2, 0, 2, [0, 1, 1])


class TestRemark43:
    def test_active_robots_always_move(self):
        h = swarm(count=3, seed=9)
        h.run(300)
        trace = h.simulator.trace
        for step in trace.steps:
            before = trace.positions_at(step.time)
            for i in step.active:
                assert step.positions[i] != before[i]


class TestDelivery:
    @pytest.mark.parametrize("seed", range(4))
    def test_single_message(self, seed):
        h = swarm(count=4, seed=seed)
        deliver(h, 0, 2, [1, 0, 1])

    def test_three_robots(self):
        h = swarm(count=3, seed=1)
        deliver(h, 2, 0, [0, 1])

    def test_identified_naming(self):
        h = swarm(count=4, naming="identified", identified=True,
                  frame_regime="sense_of_direction", seed=2)
        deliver(h, 1, 3, [1, 1, 0])

    def test_sod_naming(self):
        h = swarm(count=4, naming="sod", frame_regime="sense_of_direction", seed=3)
        deliver(h, 0, 3, [0, 0, 1])

    def test_round_robin(self):
        h = swarm(count=3, scheduler=RoundRobinScheduler(activate_all_first=True))
        deliver(h, 0, 1, [1, 0])

    def test_synchronous_scheduler(self):
        h = swarm(count=4, scheduler=SynchronousScheduler())
        deliver(h, 0, 3, [1, 0, 1])

    def test_concurrent_senders(self):
        h = swarm(count=4, seed=7)
        h.simulator.protocol_of(0).send_bits(2, [1, 0])
        h.simulator.protocol_of(1).send_bits(3, [0, 1])

        def done(hh):
            return (
                len(hh.simulator.protocol_of(2).received) >= 2
                and len(hh.simulator.protocol_of(3).received) >= 2
            )

        assert h.pump(done, max_steps=200_000)
        assert [e.bit for e in h.simulator.protocol_of(2).received] == [1, 0]
        assert [e.bit for e in h.simulator.protocol_of(3).received] == [0, 1]

    def test_everyone_overhears(self):
        """The sender holds its excursion until *everyone* has seen it
        (changed-twice acknowledgements from all peers), so eventually
        every observer decodes the bit — not just the addressee."""
        h = swarm(count=4, seed=5)
        h.simulator.protocol_of(0).send_bits(2, [1])

        def done(hh):
            return all(
                len(hh.simulator.protocol_of(observer).overheard) >= 1
                for observer in range(1, 4)
            )

        assert h.pump(done, max_steps=120_000)
        for observer in range(1, 4):
            overheard = h.simulator.protocol_of(observer).overheard
            assert [(e.src, e.dst, e.bit) for e in overheard] == [(0, 2, 1)]


class TestConfinement:
    def test_robots_stay_inside_granulars(self):
        """Movements never leave the granular — collision freedom."""
        h = swarm(count=4, seed=3)
        protocol = h.simulator.protocol_of(0)
        radii = {
            j: protocol._granulars[j].radius for j in range(4)
        }
        h.simulator.protocol_of(0).send_bits(2, [1, 0, 1])
        h.run(3000)
        trace = h.simulator.trace
        homes = trace.initial_positions
        # Radii were computed in robot 0's local units; translate to
        # world by reusing world positions (frame scale is private, so
        # recompute from world geometry instead).
        from repro.geometry.granular import granular_radius

        world_radii = {
            j: granular_radius(homes[j], [p for i, p in enumerate(homes) if i != j])
            for j in range(4)
        }
        for time in range(len(trace) + 1):
            for j, pos in enumerate(trace.positions_at(time)):
                assert pos.distance_to(homes[j]) <= world_radii[j] + 1e-9

    def test_no_collisions_under_load(self):
        h = swarm(count=5, seed=6)
        for i in range(5):
            h.simulator.protocol_of(i).send_bits((i + 1) % 5, [1, 0])
        h.run(5000)
        assert h.simulator.trace.min_pairwise_distance() > 0.5
