"""The protocol interface — a robot's behaviour and memory.

A :class:`Protocol` instance is one robot's non-oblivious state
machine.  The simulator calls :meth:`Protocol.bind` once before the run
and :meth:`Protocol.on_activate` at every activation; everything else
(bit queues, decoded traffic) is the programming surface the channel
layer and the applications build on.

All six protocols of the paper transmit *bits*; message framing on top
of bits lives in :mod:`repro.coding` and :mod:`repro.channels`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.observation import Observation

__all__ = ["BitEvent", "Protocol", "BindingInfo"]


@dataclass(frozen=True, slots=True)
class BitEvent:
    """One decoded bit in transit.

    Attributes:
        time: the instant at which the decoding observer saw the
            movement that completed the bit.
        src: tracking index of the sender.
        dst: tracking index of the addressee.
        bit: the decoded bit, 0 or 1.
    """

    time: int
    src: int
    dst: int
    bit: int


@dataclass(frozen=True, slots=True)
class BindingInfo:
    """Everything a robot knows about itself and the system at start.

    Attributes:
        index: the robot's own tracking index.
        count: number of robots ``n``.
        sigma: the robot's per-activation movement bound, expressed in
            its *local* units.
        initial_positions: ``P(t_0)`` in the robot's stationary private
            frame (Section 4.2 assumes the robots know ``P(t_0)``; in
            synchronous runs this equals the first observation anyway).
            Under limited visibility (:mod:`repro.visibility`) entries
            for robots outside the observer's range are None.
        observable_ids: the visible identifiers by tracking index, or
            None in anonymous systems.
        visibility_radius: the observer's visibility range in *local*
            units, or None for the paper's default unlimited-visibility
            setting.
    """

    index: int
    count: int
    sigma: float
    initial_positions: Tuple[Optional[Vec2], ...]
    observable_ids: Optional[Tuple[int, ...]] = None
    visibility_radius: Optional[float] = None


class Protocol(ABC):
    """Base class of all movement protocols.

    Subclasses implement :meth:`_compute` (the movement rule) and
    :meth:`_decode` (the observation rule).  The base class manages the
    outgoing bit queue and the incoming/overheard bit logs.
    """

    #: Whether the protocol satisfies the paper's *silence* property:
    #: a robot with nothing to send does not move.  The synchronous
    #: family is silent; the asynchronous protocols and the flocking
    #: overlay move while idle (Remark 4.3 / the common drift) and
    #: override this to False.  The silence invariant monitor
    #: (:mod:`repro.verify.monitors`) keys on this declaration.
    idle_silent: bool = True

    def __init__(self) -> None:
        self._info: Optional[BindingInfo] = None
        # The queue and the logs are allocated by bind(); until then
        # they are the shared empty tuple, which every pre-bind read
        # treats as empty.  Unbound protocols (the batch kernel never
        # binds its swarm) thus hold no containers for the cyclic GC
        # to traverse.
        self._outgoing: Deque[Tuple[int, int]] | Tuple[()] = ()
        self._received: List[BitEvent] | Tuple[()] = ()
        self._overheard: List[BitEvent] | Tuple[()] = ()
        self._activations: int = 0
        # Observability sink (set by repro.obs.recorder.ObsRecorder).
        # None by default: the hot path pays one identity check per
        # activation, and no bit-lifecycle events are dispatched.
        self._obs_sink = None
        self._obs_time: int = -1
        self._obs_pop: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Simulator-facing lifecycle
    # ------------------------------------------------------------------
    def bind(self, info: BindingInfo) -> None:
        """Attach the protocol to a robot; called once by the simulator."""
        if self._info is not None:
            raise ProtocolError(
                "protocol instance already bound; every robot needs its own instance"
            )
        self._info = info
        self._outgoing = deque()
        self._received = []
        self._overheard = []
        self._on_bind(info)

    def on_activate(self, observation: Observation) -> Vec2:
        """Handle one activation; returns the destination (local frame).

        Order matters and mirrors the model: the robot first *observes*
        (decodes everyone's movements from the snapshot), then
        *computes* its own destination.
        """
        info = self._require_info()
        if observation.self_index != info.index:
            raise ProtocolError(
                f"observation for robot {observation.self_index} delivered to "
                f"protocol bound to robot {info.index}"
            )
        self._activations += 1
        sink = self._obs_sink
        if sink is not None:
            self._obs_time = observation.time
        for event in self._decode(observation):
            self._overheard.append(event)
            if event.dst == info.index:
                self._received.append(event)
                if sink is not None:
                    sink.bit_receipt(info.index, event)
            elif sink is not None:
                sink.bit_overheard(info.index, event)
        target = self._compute(observation)
        if sink is not None and self._obs_pop is not None:
            dst, bit = self._obs_pop
            self._obs_pop = None
            sink.bit_moved(info.index, dst, bit, observation.time, target)
        return target

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------
    def send_bit(self, dst: int, bit: int) -> None:
        """Queue one bit for the robot with tracking index ``dst``."""
        info = self._require_info()
        if bit not in (0, 1):
            raise ProtocolError(f"bit must be 0 or 1, got {bit!r}")
        if not (0 <= dst < info.count):
            raise ProtocolError(f"destination index {dst} out of range")
        if dst == info.index:
            raise ProtocolError("a robot cannot address a movement-bit to itself")
        self._outgoing.append((dst, bit))

    def send_bits(self, dst: int, bits: Sequence[int]) -> None:
        """Queue a bit sequence for ``dst`` (in order)."""
        for bit in bits:
            self.send_bit(dst, bit)

    @property
    def pending_bits(self) -> int:
        """Number of queued bits not yet transmitted."""
        return len(self._outgoing)

    @property
    def received(self) -> Tuple[BitEvent, ...]:
        """Bits addressed to this robot, in decoding order."""
        return tuple(self._received)

    @property
    def overheard(self) -> Tuple[BitEvent, ...]:
        """Every bit this robot decoded, whoever it was addressed to.

        The paper notes that "every robot is able to know all the
        messages sent in the system", which "could provide
        fault-tolerance by redundancy"; this log is that capability.
        """
        return tuple(self._overheard)

    @property
    def activations(self) -> int:
        """How many times this robot has been activated."""
        return self._activations

    @property
    def info(self) -> BindingInfo:
        """The binding info (raises if not yet bound)."""
        return self._require_info()

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    def _on_bind(self, info: BindingInfo) -> None:
        """Hook for subclass preprocessing (Voronoi, naming, ...)."""

    @abstractmethod
    def _decode(self, observation: Observation) -> List[BitEvent]:
        """Decode other robots' movements visible in this snapshot."""

    @abstractmethod
    def _compute(self, observation: Observation) -> Vec2:
        """The movement rule: destination in the stationary local frame."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_info(self) -> BindingInfo:
        if self._info is None:
            raise ProtocolError("protocol not bound to a robot yet")
        return self._info

    def _next_outgoing(self) -> Optional[Tuple[int, int]]:
        """Pop the next queued (dst, bit), or None when idle."""
        if self._outgoing:
            entry = self._outgoing.popleft()
            sink = self._obs_sink
            if sink is not None:
                self._obs_pop = entry
                sink.bit_encode_started(
                    self._require_info().index, entry[0], entry[1], self._obs_time
                )
            return entry
        return None

    def _peek_outgoing(self) -> Optional[Tuple[int, int]]:
        """The next queued (dst, bit) without removing it."""
        if self._outgoing:
            return self._outgoing[0]
        return None
