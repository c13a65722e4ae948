"""Convergecast: aggregating sensor values to a sink robot.

The canonical swarm task the introduction motivates ("measure
properties, collect information"): every robot holds a private sensor
reading; the sink must learn an aggregate (sum, max, min) of all of
them.  Two regimes:

* **full visibility** — every robot reports directly to the sink over
  its movement channel; one message per robot;
* **limited visibility** — reports travel over the flooding relay of
  :mod:`repro.visibility`; the sink aggregates whatever arrives, and
  the run completes when all ``n - 1`` readings are in.

Readings travel as 4-byte big-endian signed integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.apps.harness import SwarmHarness, ring_positions
from repro.channels.transport import MovementChannel
from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.visibility.flooding import FloodRouter
from repro.visibility.protocol import LocalGranularProtocol

__all__ = ["AggregationResult", "converge_cast", "converge_cast_limited_visibility"]

_VALUE_BYTES = 4
AGGREGATES: Dict[str, Callable[[Sequence[int]], int]] = {
    "sum": lambda values: sum(values),
    "max": lambda values: max(values),
    "min": lambda values: min(values),
}


@dataclass(frozen=True)
class AggregationResult:
    """Outcome of a convergecast.

    Attributes:
        aggregate: the computed aggregate at the sink.
        readings: per-robot values the sink collected (sink included).
        steps: simulated instants consumed.
        messages: reports the sink received.
    """

    aggregate: int
    readings: Dict[int, int]
    steps: int
    messages: int


def _encode(value: int) -> bytes:
    return int(value).to_bytes(_VALUE_BYTES, "big", signed=True)


def _decode(blob: bytes) -> int:
    if len(blob) != _VALUE_BYTES:
        raise ProtocolError(f"malformed sensor report of {len(blob)} bytes")
    return int.from_bytes(blob, "big", signed=True)


def converge_cast(
    readings: Sequence[int],
    sink: int = 0,
    operation: str = "sum",
    positions: Optional[Sequence[Vec2]] = None,
    max_steps: int = 20_000,
) -> AggregationResult:
    """Aggregate readings at a sink under full visibility.

    Args:
        readings: one integer per robot.
        sink: the collector's tracking index.
        operation: ``"sum"``, ``"max"`` or ``"min"``.
        positions: robot layout (default: a ring).
        max_steps: abort bound.

    Raises:
        ProtocolError: on an unknown operation or a timeout.
    """
    if operation not in AGGREGATES:
        raise ProtocolError(f"unknown aggregate {operation!r}; pick from {sorted(AGGREGATES)}")
    n = len(readings)
    if positions is None:
        positions = ring_positions(n, radius=10.0, jitter=0.06)
    if not (0 <= sink < n):
        raise ProtocolError(f"sink {sink} out of range for {n} robots")

    harness = SwarmHarness(
        positions, protocol_factory=lambda: SyncGranularProtocol(), sigma=4.0
    )
    for i in range(n):
        if i != sink:
            harness.channel(i).send(sink, _encode(readings[i]))

    if not harness.pump(
        lambda h: len(h.channel(sink).inbox) >= n - 1, max_steps=max_steps
    ):
        raise ProtocolError(f"convergecast incomplete after {max_steps} steps")

    collected = {sink: readings[sink]}
    for message in harness.channel(sink).inbox:
        collected[message.src] = _decode(message.payload)
    return AggregationResult(
        aggregate=AGGREGATES[operation](list(collected.values())),
        readings=collected,
        steps=harness.simulator.time,
        messages=n - 1,
    )


def converge_cast_limited_visibility(
    readings: Sequence[int],
    visibility_radius: float,
    sink: int = 0,
    operation: str = "sum",
    positions: Optional[Sequence[Vec2]] = None,
    max_steps: int = 60_000,
) -> AggregationResult:
    """Aggregate readings at a sink over a multi-hop relay network.

    Robots only see within ``visibility_radius``; reports are flooded
    over the visibility graph (which must connect everyone to the
    sink).
    """
    if operation not in AGGREGATES:
        raise ProtocolError(f"unknown aggregate {operation!r}; pick from {sorted(AGGREGATES)}")
    n = len(readings)
    if positions is None:
        positions = [Vec2(10.0 * i, 0.0) for i in range(n)]
    if not (0 <= sink < n):
        raise ProtocolError(f"sink {sink} out of range for {n} robots")

    robots = [
        Robot(
            position=p,
            protocol=LocalGranularProtocol(),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    simulator = Simulator(robots, visibility_radius=visibility_radius)
    routers = [FloodRouter(MovementChannel(r.protocol)) for r in robots]

    for i in range(n):
        if i != sink:
            routers[i].send(sink, _encode(readings[i]))

    for _ in range(max_steps):
        simulator.step()
        for router in routers:
            router.pump(simulator.time)
        if len(routers[sink].inbox) >= n - 1:
            break
    else:
        raise ProtocolError(
            f"relay convergecast incomplete after {max_steps} steps "
            f"({len(routers[sink].inbox)}/{n - 1} reports)"
        )

    collected = {sink: readings[sink]}
    for message in routers[sink].inbox:
        collected[message.origin] = _decode(message.payload)
    return AggregationResult(
        aggregate=AGGREGATES[operation](list(collected.values())),
        readings=collected,
        steps=simulator.time,
        messages=len(routers[sink].inbox),
    )
