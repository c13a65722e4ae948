"""Tests for the Protocol base class surface."""

from __future__ import annotations

from typing import List

import pytest

from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import BindingInfo, BitEvent, Protocol
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from tests.conftest import tracked_per_build


class Recorder(Protocol):
    """Emits one synthetic bit event per activation, never moves."""

    def _decode(self, observation: Observation) -> List[BitEvent]:
        other = 1 - self.info.index
        return [
            BitEvent(time=observation.time, src=other, dst=self.info.index, bit=1),
            BitEvent(time=observation.time, src=other, dst=other, bit=0),
        ]

    def _compute(self, observation: Observation) -> Vec2:
        return observation.self_position


def bound_pair():
    a, b = Recorder(), Recorder()
    sim = Simulator(
        [Robot(position=Vec2(0, 0), protocol=a), Robot(position=Vec2(1, 0), protocol=b)]
    )
    return sim, a, b


class TestQueueing:
    def test_send_bit_validation(self):
        sim, a, _ = bound_pair()
        with pytest.raises(ProtocolError):
            a.send_bit(1, 2)  # not a bit
        with pytest.raises(ProtocolError):
            a.send_bit(5, 0)  # unknown robot
        with pytest.raises(ProtocolError):
            a.send_bit(0, 0)  # self
        a.send_bit(1, 0)
        assert a.pending_bits == 1

    def test_send_bits_order(self):
        sim, a, _ = bound_pair()
        a.send_bits(1, [1, 0, 1])
        assert a.pending_bits == 3
        assert a._next_outgoing() == (1, 1)
        assert a._peek_outgoing() == (1, 0)
        assert a.pending_bits == 2

    def test_unbound_protocol_rejects_use(self):
        p = Recorder()
        with pytest.raises(ProtocolError):
            p.send_bit(1, 0)
        with pytest.raises(ProtocolError):
            _ = p.info


class TestLogs:
    def test_received_vs_overheard_separation(self):
        sim, a, b = bound_pair()
        sim.step()
        # Each decode produced 2 events; only the one addressed to the
        # observer lands in `received`.
        assert len(a.overheard) == 2
        assert len(a.received) == 1
        assert a.received[0].dst == 0
        assert a.activations == 1

    def test_wrong_observation_rejected(self):
        sim, a, b = bound_pair()
        obs = Observation(time=0, self_index=1, robots=())
        with pytest.raises(ProtocolError):
            a.on_activate(obs)

    def test_double_bind_rejected(self):
        sim, a, _ = bound_pair()
        with pytest.raises(ProtocolError):
            a.bind(
                BindingInfo(
                    index=0, count=2, sigma=1.0, initial_positions=(Vec2(0, 0), Vec2(1, 0))
                )
            )


class TestUnbound:
    """Queues and logs are allocated at bind, not at construction."""

    def test_construction_tracks_one_object_per_instance(self):
        assert tracked_per_build(Recorder) <= 1.0

    def test_pre_bind_reads_are_empty(self):
        p = Recorder()
        assert p.pending_bits == 0
        assert p.received == ()
        assert p.overheard == ()
        assert p.activations == 0
        assert p._next_outgoing() is None
        assert p._peek_outgoing() is None
        with pytest.raises(ProtocolError, match="not bound"):
            p.send_bit(1, 0)
        with pytest.raises(ProtocolError, match="not bound"):
            p.send_bits(1, [0, 1])

    def test_rebinding_is_refused(self):
        sim, a, _ = bound_pair()
        with pytest.raises(ProtocolError, match="already bound"):
            Simulator([Robot(position=Vec2(0, 0), protocol=a),
                       Robot(position=Vec2(1, 0), protocol=Recorder())])

    def test_bound_robots_never_share_a_queue(self):
        sim, a, b = bound_pair()
        for log in ("_outgoing", "_received", "_overheard"):
            assert getattr(a, log) is not getattr(b, log)
        a.send_bits(1, [1, 0])
        assert (a.pending_bits, b.pending_bits) == (2, 0)
        sim.step()
        assert len(a.received) == len(b.received) == 1
        assert a.received[0].dst == 0 and b.received[0].dst == 1
