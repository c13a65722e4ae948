"""Bit-identity of the precomputed-basis transforms.

The engines transform points with a basis computed once per robot
(:func:`repro.geometry.frames.frame_bases`) instead of re-evaluating
the frame's trig on every call, and ``Simulator._observe`` writes the
``to_local`` arithmetic out inline.  Every such copy must produce the
same floats as the frame algebra it replaces, so these tests compare
IEEE-754 bit patterns (exact equality that also tells ``0.0`` from
``-0.0``), never approximately.

The reference below is the transform written in ``Vec2`` algebra:
``delta.dot(axis) / scale`` to local, ``origin + x * (lx * scale) +
y * (ly * scale)`` to the world.  A re-associated variant such as
``dx * (cx / scale) + dy * (cy / scale)`` rounds differently on scaled
frames and fails here.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Dict, List, Sequence

import pytest

from repro.apps.harness import ring_positions
from repro.events.engine import EventSimulator
from repro.geometry.frames import (
    Frame,
    basis_to_local,
    basis_to_world,
    frame_bases,
    frame_basis,
    make_frames,
)
from repro.geometry.vec import Vec2
from repro.model.looks import LookPolicy
from repro.model.observation import Observation, ObservedRobot
from repro.model.protocol import Protocol
from repro.model.robot import Robot
from repro.model.scheduler import FairAsynchronousScheduler
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol

from tests.conftest import make_harness

REGIMES = ("identical", "sense_of_direction", "chirality", "adversarial")

#: Frames the regimes never draw: signed-zero rotations (whose sines
#: differ in sign), a half turn, left-handed and strongly scaled.
EDGE_FRAMES = (
    Frame(rotation=0.0, scale=0.37, handedness=-1),
    Frame(rotation=-0.0, scale=0.37, handedness=-1),
    Frame(rotation=-0.0, scale=3.0, handedness=1),
    Frame(rotation=math.pi, scale=1e-3, handedness=-1),
    Frame(rotation=-2.5, scale=7.25, handedness=1),
)


def bits(v: Vec2) -> bytes:
    return struct.pack("<dd", v.x, v.y)


def ref_to_local(frame: Frame, point: Vec2, origin: Vec2) -> Vec2:
    x_axis = Vec2.unit(frame.rotation)
    y_axis = x_axis.perp_ccw() if frame.handedness == 1 else -x_axis.perp_ccw()
    delta = point - origin
    return Vec2(delta.dot(x_axis) / frame.scale, delta.dot(y_axis) / frame.scale)


def ref_to_world(frame: Frame, local: Vec2, origin: Vec2) -> Vec2:
    x_axis = Vec2.unit(frame.rotation)
    y_axis = x_axis.perp_ccw() if frame.handedness == 1 else -x_axis.perp_ccw()
    return (
        origin
        + x_axis * (local.x * frame.scale)
        + y_axis * (local.y * frame.scale)
    )


def regime_frames(regime: str, count: int = 40) -> List[Frame]:
    return make_frames(count, regime, seed=11) + list(EDGE_FRAMES)


def seeded_points(rng: random.Random, count: int) -> List[Vec2]:
    return [Vec2(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)) for _ in range(count)]


# ----------------------------------------------------------------------
# The transform functions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", REGIMES)
def test_basis_transforms_match_frame_algebra(regime):
    frames = regime_frames(regime)
    rng = random.Random(REGIMES.index(regime))
    for frame, basis in zip(frames, frame_bases(frames)):
        for point, origin in zip(seeded_points(rng, 30), seeded_points(rng, 30)):
            local = ref_to_local(frame, point, origin)
            assert bits(basis_to_local(basis, frame.scale, point, origin)) == bits(local)
            assert bits(frame.to_local(point, origin)) == bits(local)
            world = ref_to_world(frame, point, origin)
            assert bits(basis_to_world(basis, frame.scale, point, origin)) == bits(world)
            assert bits(frame.to_world(point, origin)) == bits(world)
        assert bits(frame.y_axis) == bits(Vec2(*frame_basis(frame.rotation, frame.handedness)[2:]))


def test_shared_orientation_shares_one_basis():
    frames = make_frames(50, "sense_of_direction", seed=2)
    bases = frame_bases(frames)
    assert all(b is bases[0] for b in bases)
    # 0.0 and -0.0 compare equal but have sines of opposite sign
    zero, negzero = frame_bases([Frame(rotation=0.0), Frame(rotation=-0.0)])
    assert zero is not negzero
    assert math.copysign(1.0, zero[1]) == -math.copysign(1.0, negzero[1])


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------
class _Wander(Protocol):
    """Steps to seeded points near home and keeps what it saw and chose.

    Targets stay within half a sigma of home, so every move is reached
    in full and the new world position is exactly ``to_world(target)``.
    """

    idle_silent = False

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        self.seen: List[Observation] = []
        self.targets: List[Vec2] = []

    def _decode(self, observation: Observation):
        return []

    def _compute(self, observation: Observation) -> Vec2:
        self.seen.append(observation)
        reach = 0.3 * self.info.sigma
        target = Vec2(self._rng.uniform(-reach, reach), self._rng.uniform(-reach, reach))
        self.targets.append(target)
        return target


class _CopyLook(LookPolicy):
    """The live configuration as a fresh tuple: a non-live snapshot."""

    def bind(self, sim) -> None:
        super().bind(sim)
        self.last: Dict[int, Sequence[Vec2]] = {}

    def config(self, sim, index: int) -> Sequence[Vec2]:
        self.last[index] = tuple(sim.positions)
        return self.last[index]


def _swarm(regime: str, count: int = 9):
    frames = make_frames(count, regime, seed=5)
    frames[-1] = EDGE_FRAMES[1]
    frames[-2] = EDGE_FRAMES[3]
    positions = ring_positions(count, radius=10.0, jitter=0.07)
    protocols = [_Wander(seed=i) for i in range(count)]
    robots = [
        Robot(position=p, protocol=proto, frame=f, sigma=2.0)
        for p, proto, f in zip(positions, protocols, frames)
    ]
    return robots, protocols, frames, positions


def _check_run(sim, protocols, frames, anchors, look=None, steps=24):
    checked = 0
    for _ in range(steps):
        before = sim.positions
        marks = [len(p.seen) for p in protocols]
        sim.step()
        after = sim.positions
        for i, proto in enumerate(protocols):
            if len(proto.seen) == marks[i]:
                assert after[i] == before[i]
                continue
            (observation,) = proto.seen[marks[i]:]
            world = look.last[i] if look is not None else before
            for robot in observation.robots:
                expected = frames[i].to_local(world[robot.index], anchors[i])
                assert bits(robot.position) == bits(expected)
                assert bits(expected) == bits(ref_to_local(frames[i], world[robot.index], anchors[i]))
                checked += 1
            target = proto.targets[-1]
            assert bits(after[i]) == bits(ref_to_world(frames[i], target, anchors[i]))
    return checked


@pytest.mark.parametrize("caching", [True, False])
@pytest.mark.parametrize("regime", REGIMES)
def test_observe_and_move_are_frame_transforms(regime, caching):
    robots, protocols, frames, anchors = _swarm(regime)
    scheduler = FairAsynchronousScheduler(activation_probability=0.5, seed=3)
    sim = Simulator(robots, scheduler, caching=caching)
    assert _check_run(sim, protocols, frames, anchors) > 0
    if caching:
        # the per-entry reuse branch and the first build both ran
        assert sim.stats.observations_reused > 0


@pytest.mark.parametrize("caching", [True, False])
@pytest.mark.parametrize("regime", ("chirality", "adversarial"))
def test_non_live_looks_are_frame_transforms(regime, caching):
    robots, protocols, frames, anchors = _swarm(regime)
    look = _CopyLook()
    scheduler = FairAsynchronousScheduler(activation_probability=0.5, seed=4)
    sim = Simulator(robots, scheduler, caching=caching, look=look)
    assert _check_run(sim, protocols, frames, anchors, look=look) > 0


def test_limited_visibility_observations_are_frame_transforms():
    robots, protocols, frames, anchors = _swarm("adversarial", count=12)
    sim = Simulator(robots, FairAsynchronousScheduler(seed=6), visibility_radius=9.0)
    assert _check_run(sim, protocols, frames, anchors) > 0
    assert any(len(p.seen[0].robots) < 12 for p in protocols)


@pytest.mark.parametrize("lazy_views", [False, True])
@pytest.mark.parametrize("regime", REGIMES)
def test_event_engine_binds_and_moves_with_frame_transforms(regime, lazy_views):
    robots, protocols, frames, anchors = _swarm(regime)
    sim = EventSimulator(
        robots, FairAsynchronousScheduler(seed=7), lazy_views=lazy_views
    )
    for i, proto in enumerate(protocols):
        view = proto.info.initial_positions
        for j, anchor in enumerate(anchors):
            assert bits(view[j]) == bits(ref_to_local(frames[i], anchor, anchors[i]))
    assert _check_run(sim, protocols, frames, anchors) > 0


# ----------------------------------------------------------------------
# The granular decode
# ----------------------------------------------------------------------
def test_decode_of_a_missing_peer_raises_key_error():
    harness = make_harness(4, lambda: SyncGranularProtocol())
    protocol = harness.simulator.protocol_of(0)
    homes = protocol.info.initial_positions
    observation = Observation(
        time=0,
        self_index=0,
        robots=tuple(ObservedRobot(i, homes[i], i) for i in (0, 1, 3)),
    )
    with pytest.raises(KeyError) as excinfo:
        protocol._decode(observation)
    assert excinfo.value.args == ("robot 2 is not visible in this snapshot",)
