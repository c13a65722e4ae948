"""A convenience harness: swarm + protocols + channels in one object.

Applications and examples all need the same scaffolding — place robots,
pick a protocol family and scheduler, wire a
:class:`~repro.channels.transport.MovementChannel` per robot, and pump
the simulation until some condition holds.  :class:`SwarmHarness`
packages that, with sensible defaults (identified synchronous swarm).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from repro.batch import make_simulator
from repro.channels.mailbox import OverhearingMonitor
from repro.channels.transport import MovementChannel
from repro.errors import ModelError
from repro.geometry.frames import Frame, FrameRegime, make_frames
from repro.geometry.vec import Vec2
from repro.model.protocol import Protocol
from repro.model.robot import Robot
from repro.model.scheduler import Scheduler
from repro.model.trace import TracePolicy

__all__ = ["SwarmHarness", "ring_positions"]


def ring_positions(count: int, radius: float = 10.0, jitter: float = 0.0) -> List[Vec2]:
    """``count`` positions spread on a circle (slightly irregular).

    A small deterministic angular jitter (scaled by ``jitter``) breaks
    the rotational symmetry that would defeat common naming.
    """
    if count < 1:
        raise ModelError(f"count must be >= 1, got {count}")
    positions: List[Vec2] = []
    for i in range(count):
        angle = 2.0 * math.pi * i / count + jitter * math.sin(7.0 * (i + 1))
        positions.append(Vec2.from_polar(radius, angle))
    return positions


class SwarmHarness:
    """A ready-to-run swarm with one message channel per robot.

    Args:
        positions: initial world positions (pairwise distinct).
        protocol_factory: called once per robot to create its protocol
            instance.
        scheduler: activation policy (default: synchronous).
        identified: when True every robot gets ``observable_id = i``.
        frame_regime: local-frame capability regime (see
            :func:`repro.geometry.frames.make_frames`).
        sigma: per-activation movement bound (world units), same for
            all robots by default.
        frame_seed: seed for the frame generator.
        caching: forwarded to the simulator (hot-path caches; results
            are identical either way).
        trace_policy: forwarded to the simulator (trace memory bound).
        backend: simulator backend — ``"scalar"`` (default) or
            ``"batch"`` (the vectorized engine of :mod:`repro.batch`;
            degrades to scalar when numpy is absent or the swarm is
            outside the granular kernel's envelope).  The
            backends are trace-equivalent, so everything built on the
            harness behaves identically either way.
        engine: ``"rounds"`` (default, instant-stepped) or ``"events"``
            (the event-queue engine of :mod:`repro.events`).  With the
            default round-emulation timing the engines are
            byte-identical; pass ``timing``/``delay`` for continuous
            time and observation delays.
        timing / delay: event-engine knobs (a
            :class:`~repro.events.timing.TimingModel` and a
            :class:`~repro.events.delay.DelayModel`); only valid with
            ``engine="events"``.
    """

    def __init__(
        self,
        positions: Sequence[Vec2],
        protocol_factory: Callable[[], Protocol],
        scheduler: Optional[Scheduler] = None,
        identified: bool = True,
        frame_regime: FrameRegime = "sense_of_direction",
        sigma: float = 2.0,
        frame_seed: int = 0,
        caching: bool = True,
        trace_policy: Optional["TracePolicy"] = None,
        backend: str = "scalar",
        engine: str = "rounds",
        timing=None,
        delay=None,
    ) -> None:
        frames: List[Frame] = make_frames(len(positions), frame_regime, seed=frame_seed)
        self.robots = [
            Robot(
                position=p,
                protocol=protocol_factory(),
                frame=frames[i],
                sigma=sigma,
                observable_id=i if identified else None,
            )
            for i, p in enumerate(positions)
        ]
        kwargs = {}
        if engine != "rounds" or timing is not None or delay is not None:
            kwargs.update(engine=engine, timing=timing, delay=delay)
        self.simulator = make_simulator(
            self.robots,
            scheduler,
            backend=backend,
            caching=caching,
            trace_policy=trace_policy,
            **kwargs,
        )
        # Channels and monitors wrap the *simulator's* protocol surface,
        # not robot.protocol: the batch engine serves bit streams
        # through per-robot views instead of the bound objects.
        self.channels = [
            MovementChannel(self.simulator.protocol_of(i))
            for i in range(len(self.robots))
        ]
        self.monitors = [
            OverhearingMonitor(self.simulator.protocol_of(i))
            for i in range(len(self.robots))
        ]

    @property
    def count(self) -> int:
        """Number of robots."""
        return self.simulator.count

    def channel(self, index: int) -> MovementChannel:
        """The message channel of one robot."""
        return self.channels[index]

    def pump(
        self,
        done: Callable[["SwarmHarness"], bool],
        max_steps: int = 10_000,
    ) -> bool:
        """Step the simulation until ``done(self)`` or ``max_steps``.

        Channels are polled after every step so ``done`` can inspect
        inboxes.  Returns True when the condition was met.
        """
        if done(self):
            return True
        for _ in range(max_steps):
            self.simulator.step()
            for channel in self.channels:
                channel.poll()
            if done(self):
                return True
        return False

    def run(self, steps: int) -> None:
        """Advance a fixed number of instants, polling channels."""
        for _ in range(steps):
            self.simulator.step()
            for channel in self.channels:
                channel.poll()
