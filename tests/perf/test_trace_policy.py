"""Trace memory control: ring-buffer capacity and stride sampling."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import Protocol
from repro.model.looks import StaleLook
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.model.trace import TracePolicy
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.apps.harness import ring_positions


class Drift(Protocol):
    """Move right by a fixed amount every activation."""

    def _decode(self, observation: Observation):
        return []

    def _compute(self, observation: Observation) -> Vec2:
        return observation.self_position + Vec2(0.5, 0.0)


def drifting(count: int = 3, **simulator_kwargs) -> Simulator:
    robots = [
        Robot(position=Vec2(0.0, float(4 * i)), protocol=Drift(), sigma=1.0)
        for i in range(count)
    ]
    return Simulator(robots, **simulator_kwargs)


class TestPolicyValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ModelError, match="capacity"):
            TracePolicy(capacity=0)

    def test_bad_stride_rejected(self):
        with pytest.raises(ModelError, match="stride"):
            TracePolicy(stride=0)

    def test_default_is_unbounded(self):
        assert not TracePolicy().bounded
        assert TracePolicy(capacity=8).bounded
        assert TracePolicy(stride=2).bounded


class TestRingBuffer:
    def test_capacity_retains_only_recent_steps(self):
        sim = drifting(trace_policy=TracePolicy(capacity=5))
        sim.run(12)
        assert len(sim.trace.steps) == 5
        assert [s.time for s in sim.trace.steps] == list(range(7, 12))
        assert sim.trace.dropped == 7
        assert sim.trace.total_steps == 12

    def test_latest_always_reachable(self):
        sim = drifting(trace_policy=TracePolicy(capacity=2))
        sim.run(9)
        assert sim.trace.latest is not None
        assert sim.trace.latest.time == 8
        assert sim.trace.positions_at(9) == sim.positions

    def test_evicted_instant_raises(self):
        sim = drifting(trace_policy=TracePolicy(capacity=3))
        sim.run(10)
        with pytest.raises(ModelError, match="not retained"):
            sim.trace.positions_at(2)

    def test_retained_instant_still_indexable(self):
        unbounded = drifting()
        bounded = drifting(trace_policy=TracePolicy(capacity=4))
        unbounded.run(10)
        bounded.run(10)
        for time in (7, 8, 9, 10):
            assert bounded.trace.positions_at(time) == unbounded.trace.positions_at(time)


class TestStrideSampling:
    def test_stride_records_every_kth_instant(self):
        sim = drifting(trace_policy=TracePolicy(stride=3))
        sim.run(10)
        assert [s.time for s in sim.trace.steps] == [0, 3, 6, 9]
        assert sim.trace.skipped == 6
        assert sim.trace.total_steps == 10

    def test_skipped_instant_raises(self):
        sim = drifting(trace_policy=TracePolicy(stride=3))
        sim.run(10)
        # Instant 3 is P(t) after step time=2, which was skipped.
        with pytest.raises(ModelError, match="not retained"):
            sim.trace.positions_at(3)
        # Step time=3 was recorded, i.e. instant 4 is available.
        assert len(sim.trace.positions_at(4)) == sim.count

    def test_latest_wins_over_stride(self):
        sim = drifting(trace_policy=TracePolicy(stride=4))
        sim.run(7)  # final step time=6, not a stride multiple
        assert sim.trace.latest is not None
        assert sim.trace.latest.time == 6
        assert sim.trace.positions_at(7) == sim.positions


class TestPolicyOnRealRuns:
    def test_bounded_run_matches_unbounded_positions(self):
        def build(policy):
            robots = [
                Robot(
                    position=p,
                    protocol=SyncGranularProtocol(),
                    sigma=4.0,
                    observable_id=i,
                )
                for i, p in enumerate(ring_positions(5, radius=10.0, jitter=0.06))
            ]
            sim = Simulator(robots, trace_policy=policy)
            robots[0].protocol.send_bits(2, [1, 0, 1])
            sim.run(10)
            return sim

        full = build(None)
        ring = build(TracePolicy(capacity=4))
        assert ring.positions == full.positions
        assert ring.trace.latest == full.trace.latest
        assert [e.bit for e in ring.protocol_of(2).received] == [
            e.bit for e in full.protocol_of(2).received
        ]

    def test_stale_look_simulator_rejects_starved_policy(self):
        robots = [
            Robot(position=p, protocol=Drift(), sigma=1.0)
            for p in (Vec2(0.0, 0.0), Vec2(8.0, 0.0))
        ]
        with pytest.raises(ModelError, match="max_delay"):
            Simulator(
                robots, trace_policy=TracePolicy(capacity=2), look=StaleLook(3)
            )
        with pytest.raises(ModelError, match="max_delay"):
            Simulator(robots, trace_policy=TracePolicy(stride=2), look=StaleLook(1))

    def test_stale_look_simulator_accepts_sufficient_capacity(self):
        robots = [
            Robot(position=p, protocol=Drift(), sigma=1.0)
            for p in (Vec2(0.0, 0.0), Vec2(8.0, 0.0))
        ]
        sim = Simulator(
            robots, trace_policy=TracePolicy(capacity=16), look=StaleLook(2, seed=3)
        )
        sim.run(30)
        assert len(sim.trace.steps) <= 16
