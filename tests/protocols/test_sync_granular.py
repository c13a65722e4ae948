"""Tests for the n-robot synchronous granular protocol (Sections 3.2-3.4)."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import collision_audit, silence_audit
from repro.apps.harness import SwarmHarness, ring_positions
from repro.coding.bitstream import encode_message
from repro.errors import ProtocolError
from repro.geometry.granular import granular_radius
from repro.geometry.vec import Vec2
from repro.protocols.sync_granular import SyncGranularProtocol

from tests.conftest import make_harness, random_positions, tracked_per_build


#: Every constructor refusal, with its exact message.  ``["sod"]`` is
#: unhashable: it must meet the same check as any other bad naming.
BAD_ARGUMENTS = [
    ({"naming": "bogus"}, "unknown naming mode 'bogus'"),
    ({"naming": ["sod"]}, "unknown naming mode ['sod']"),
    ({"excursion_fraction": 1.5}, "excursion_fraction must be in (0, 1), got 1.5"),
    ({"excursion_fraction": 0.0}, "excursion_fraction must be in (0, 1), got 0.0"),
    ({"max_directions": 1}, "max_directions must be >= 2, got 1"),
    ({"dilation": 0}, "dilation must be >= 1, got 0"),
    ({"off_home_fraction": 0.0}, "off_home_fraction must be in (0, 1), got 0.0"),
    ({"off_home_fraction": 1.0}, "off_home_fraction must be in (0, 1), got 1.0"),
    (
        {"off_home_fraction": 0.5},
        "off_home_fraction must stay below excursion_fraction or "
        "genuine excursions would read as idle",
    ),
]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, message", BAD_ARGUMENTS, ids=[str(k) for k, _ in BAD_ARGUMENTS]
    )
    def test_bad_argument_message(self, kwargs, message):
        for _ in range(2):  # a refused argument set is never remembered
            with pytest.raises(ProtocolError) as info:
                SyncGranularProtocol(**kwargs)
            assert str(info.value) == message

    def test_equal_arguments_share_one_config(self):
        a = SyncGranularProtocol(naming="sod", dilation=3)
        b = SyncGranularProtocol(naming="sod", dilation=3)
        assert a._config is b._config
        assert SyncGranularProtocol()._config is SyncGranularProtocol(
            naming="identified"
        )._config
        assert a._config != SyncGranularProtocol(naming="sod")._config

    def test_naming_mode_checked(self):
        with pytest.raises(ProtocolError):
            SyncGranularProtocol(naming="bogus")  # type: ignore[arg-type]

    def test_excursion_fraction_checked(self):
        with pytest.raises(ProtocolError):
            SyncGranularProtocol(excursion_fraction=1.5)

    def test_identified_mode_needs_ids(self):
        with pytest.raises(ProtocolError):
            make_harness(4, lambda: SyncGranularProtocol(naming="identified"), identified=False)

    def test_needs_two_robots(self):
        from repro.model.robot import Robot
        from repro.model.simulator import Simulator

        with pytest.raises(ProtocolError):
            Simulator(
                [Robot(position=Vec2(0, 0), protocol=SyncGranularProtocol(), observable_id=0)]
            )


class TestUnbound:
    """Per-run state is built at bind; until then nothing is allocated."""

    def test_construction_tracks_one_object_per_instance(self):
        assert tracked_per_build(SyncGranularProtocol) <= 1.0

    def test_pre_bind_api_unchanged(self):
        p = SyncGranularProtocol()
        assert (p.pending_bits, p.received, p.overheard) == (0, (), ())
        with pytest.raises(ProtocolError, match="not bound"):
            p.send_bit(1, 0)
        with pytest.raises(ProtocolError, match="unknown robot 0"):
            p.granular_of(0)
        with pytest.raises(ProtocolError, match="unknown sender 0"):
            p.labels_used_by(0)

    def test_reuse_is_refused(self):
        h = make_harness(3, lambda: SyncGranularProtocol())
        with pytest.raises(ProtocolError, match="already bound"):
            h.simulator.protocol_of(0).bind(h.simulator.protocol_of(1).info)

    def test_bound_robots_own_their_state(self):
        h = make_harness(3, lambda: SyncGranularProtocol())
        a, b = h.simulator.protocol_of(0), h.simulator.protocol_of(1)
        for name in ("_homes", "_granulars", "_labels", "_inverse",
                     "_peer_was_home", "_outgoing", "_received"):
            assert getattr(a, name) is not getattr(b, name), name
            assert isinstance(getattr(a, name), (list, dict, deque)), name
        a.send_bits(1, [1, 0])
        assert (a.pending_bits, b.pending_bits) == (2, 0)


class TestPreprocessing:
    def test_granular_radius_is_half_nearest_neighbor(self):
        h = make_harness(6, lambda: SyncGranularProtocol(), frame_regime="identical")
        protocol = h.simulator.protocol_of(0)
        positions = [r.position for r in h.robots]
        expected = granular_radius(positions[0], positions[1:])
        assert protocol.granular_of(0).radius == pytest.approx(expected)

    def test_labels_cover_all_robots(self):
        h = make_harness(5, lambda: SyncGranularProtocol())
        protocol = h.simulator.protocol_of(2)
        for sender in range(5):
            labels = protocol.labels_used_by(sender)
            assert sorted(labels.values()) == list(range(5))

    def test_identified_labels_common_to_all_senders(self):
        h = make_harness(5, lambda: SyncGranularProtocol())
        protocol = h.simulator.protocol_of(0)
        reference = protocol.labels_used_by(0)
        for sender in range(1, 5):
            assert protocol.labels_used_by(sender) == reference

    def test_sec_labels_differ_per_sender(self):
        h = make_harness(
            6,
            lambda: SyncGranularProtocol(naming="sec"),
            identified=False,
            frame_regime="chirality",
        )
        protocol = h.simulator.protocol_of(0)
        labellings = {tuple(sorted(protocol.labels_used_by(s).items())) for s in range(6)}
        assert len(labellings) > 1


def exchange(h: SwarmHarness, src: int, dst: int, payload: bytes, max_steps: int = 4000):
    h.channel(src).send(dst, payload)
    ok = h.pump(lambda hh: len(hh.channel(dst).inbox) >= 1, max_steps=max_steps)
    assert ok, "message did not arrive"
    return h.channel(dst).inbox[0]


class TestDeliveryAcrossNamingModes:
    def test_identified(self):
        h = make_harness(6, lambda: SyncGranularProtocol(naming="identified"))
        msg = exchange(h, 0, 4, b"to four")
        assert msg.payload == b"to four"
        assert msg.src == 0

    def test_sod_anonymous(self):
        h = make_harness(
            6,
            lambda: SyncGranularProtocol(naming="sod"),
            identified=False,
            frame_regime="sense_of_direction",
        )
        assert exchange(h, 2, 5, b"sod").payload == b"sod"

    def test_sec_anonymous_chirality_only(self):
        h = make_harness(
            6,
            lambda: SyncGranularProtocol(naming="sec"),
            identified=False,
            frame_regime="chirality",
            frame_seed=5,
        )
        assert exchange(h, 1, 3, b"sec").payload == b"sec"

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=100),
    )
    def test_random_swarms_deliver(self, count, seed):
        src = seed % count
        dst = (seed + 1) % count
        if src == dst:
            return
        h = SwarmHarness(
            random_positions(count, seed=seed, min_separation=2.0),
            protocol_factory=lambda: SyncGranularProtocol(),
            sigma=5.0,
        )
        h.simulator.protocol_of(src).send_bits(dst, [1, 0, 1])
        h.run(8)
        assert [e.bit for e in h.simulator.protocol_of(dst).received] == [1, 0, 1]


class TestConcurrentTraffic:
    def test_all_pairs_chatter(self):
        """Every robot simultaneously sends to every other robot."""
        n = 5
        h = make_harness(n, lambda: SyncGranularProtocol())
        for i in range(n):
            for j in range(n):
                if i != j:
                    h.simulator.protocol_of(i).send_bits(j, [i % 2, 1])
        h.run(2 * 2 * (n - 1) + 2)
        for j in range(n):
            received = h.simulator.protocol_of(j).received
            assert len(received) == 2 * (n - 1)
            by_src = {}
            for e in received:
                by_src.setdefault(e.src, []).append(e.bit)
            assert set(by_src) == set(range(n)) - {j}
            for src, bits in by_src.items():
                assert bits == [src % 2, 1]

    def test_fifo_per_stream(self):
        h = make_harness(4, lambda: SyncGranularProtocol())
        bits = [1, 1, 0, 1, 0, 0, 1, 0]
        h.simulator.protocol_of(0).send_bits(2, bits)
        h.run(2 * len(bits))
        assert [e.bit for e in h.simulator.protocol_of(2).received] == bits


class TestPaperProperties:
    def test_silent(self):
        """C3: idle robots never move."""
        h = make_harness(8, lambda: SyncGranularProtocol())
        h.simulator.protocol_of(0).send_bits(3, [1, 0])
        h.run(40)
        idle = [i for i in range(8) if i != 0]
        assert silence_audit(h.simulator.trace, idle) == []

    def test_collision_freedom(self):
        """C4: granular confinement keeps robots apart."""
        n = 6
        h = make_harness(n, lambda: SyncGranularProtocol())
        positions = [r.position for r in h.robots]
        initial_min = min(
            positions[i].distance_to(positions[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        for i in range(n):
            for j in range(n):
                if i != j:
                    h.simulator.protocol_of(i).send_bits(j, [1, 0, 1, 0])
        h.run(80)
        # Each robot stays inside its granular (radius = half its own
        # nearest-neighbour gap), so pairs can never touch; the minimum
        # distance cannot drop below a tenth of the initial one here.
        assert collision_audit(h.simulator.trace) > initial_min * 0.1
        assert collision_audit(h.simulator.trace) > 0.0

    def test_everyone_overhears_everything(self):
        """The redundancy remark: all robots decode all traffic."""
        h = make_harness(5, lambda: SyncGranularProtocol())
        h.simulator.protocol_of(0).send_bits(1, [1, 0])
        h.simulator.protocol_of(3).send_bits(2, [0, 1])
        h.run(10)
        for observer in range(5):
            overheard = h.simulator.protocol_of(observer).overheard
            streams = {(e.src, e.dst) for e in overheard}
            expected = set()
            if observer != 0:
                expected.add((0, 1))
            if observer != 3:
                expected.add((3, 2))
            assert streams == expected

    def test_framed_message_end_to_end(self):
        h = make_harness(12, lambda: SyncGranularProtocol())
        payload = "déaf & dumb robots…"
        bits = encode_message(payload)
        h.channel(9).send(3, payload)
        assert h.pump(lambda hh: len(hh.channel(3).inbox) >= 1, max_steps=2 * len(bits) + 10)
        assert h.channel(3).inbox[0].text() == payload
