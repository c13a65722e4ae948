"""Execution traces.

The simulator records the full history of a run: who was active when,
and where everyone was after each step.  Analysis code (metrics,
collision audits, figure regeneration) and many tests consume traces
instead of peeking into live simulator state.

By default every step is retained.  Long asynchronous runs (hundreds
of thousands of instants) would then hold O(steps * n) position tuples,
so a :class:`TracePolicy` can bound memory two ways:

* **ring buffer** (``capacity``): only the most recent ``capacity``
  recorded steps are kept; older ones are evicted (counted in
  ``dropped``).
* **stride sampling** (``stride``): only every ``stride``-th instant is
  recorded (the rest are counted in ``skipped``).

Both modes always keep the *latest* step reachable via
:attr:`Trace.latest` / :meth:`Trace.positions_at`, and the aggregate
metrics operate on whatever was retained.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.geometry.vec import Vec2

__all__ = ["TraceStep", "Trace", "TracePolicy", "trace_crc"]


@dataclass(frozen=True, slots=True)
class TraceStep:
    """The outcome of one instant.

    Attributes:
        time: the instant ``t_j``.
        active: indices of the robots activated at ``t_j``.
        positions: world positions of all robots at ``t_{j+1}`` (after
            the movements of the step).
    """

    time: int
    active: FrozenSet[int]
    positions: Tuple[Vec2, ...]


@dataclass(frozen=True, slots=True)
class TracePolicy:
    """Memory-control policy for :class:`Trace` recording.

    Attributes:
        capacity: when set, at most this many recorded steps are
            retained (a ring buffer of the most recent ones).
        stride: record only instants whose time is a multiple of this
            (1 = record everything).
    """

    capacity: Optional[int] = None
    stride: int = 1

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ModelError(f"capacity must be >= 1, got {self.capacity}")
        if self.stride < 1:
            raise ModelError(f"stride must be >= 1, got {self.stride}")

    @property
    def bounded(self) -> bool:
        """Whether this policy can drop steps."""
        return self.capacity is not None or self.stride > 1


@dataclass
class Trace:
    """A complete (or policy-bounded) run history.

    Attributes:
        initial_positions: the configuration ``P(t_0)``.
        steps: the retained :class:`TraceStep` records, ascending time.
        policy: what to retain (default: everything).
        dropped: steps evicted by the ring buffer.
        skipped: steps never recorded due to stride sampling.
    """

    initial_positions: Tuple[Vec2, ...]
    steps: List[TraceStep] = field(default_factory=list)
    policy: TracePolicy = field(default_factory=TracePolicy)
    dropped: int = 0
    skipped: int = 0
    _latest: Optional[TraceStep] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    @property
    def count(self) -> int:
        """Number of robots."""
        return len(self.initial_positions)

    @property
    def total_steps(self) -> int:
        """Instants simulated, including dropped and skipped ones."""
        return len(self.steps) + self.dropped + self.skipped

    @property
    def latest(self) -> Optional[TraceStep]:
        """The most recent step, retained or not (None before any)."""
        if self._latest is not None:
            return self._latest
        return self.steps[-1] if self.steps else None

    def record(self, step: TraceStep) -> None:
        """Record one step under the trace's retention policy."""
        self._latest = step
        policy = self.policy
        if policy.stride > 1 and step.time % policy.stride != 0:
            self.skipped += 1
            return
        self.steps.append(step)
        if policy.capacity is not None and len(self.steps) > policy.capacity:
            del self.steps[0]
            self.dropped += 1

    def positions_at(self, time: int) -> Tuple[Vec2, ...]:
        """The configuration ``P(t)``; ``time`` from 0 to ``len(steps)``.

        Raises:
            ModelError: when the instant was dropped or skipped under a
                bounding policy.
        """
        if time == 0:
            return self.initial_positions
        latest = self._latest
        if latest is not None and time - 1 == latest.time:
            return latest.positions
        if not self.policy.bounded:
            return self.steps[time - 1].positions
        # Bounded trace: binary-search the retained steps by time.
        lo, hi = 0, len(self.steps)
        target = time - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.steps[mid].time < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.steps) and self.steps[lo].time == target:
            return self.steps[lo].positions
        raise ModelError(
            f"instant {time} is not retained by this trace "
            f"(policy {self.policy!r}; {self.dropped} dropped, "
            f"{self.skipped} skipped)"
        )

    def retained_times(self) -> List[int]:
        """The instants whose steps are retained, in ascending order.

        Under a bounding policy this is the surviving subset; audits
        that sample the history (the verification monitors, eviction
        tests) use it to know which ``positions_at`` queries are legal.
        """
        return [step.time for step in self.steps]

    def path_of(self, index: int) -> List[Vec2]:
        """The retained position sequence of one robot."""
        return [self.initial_positions[index]] + [s.positions[index] for s in self.steps]

    def distance_travelled(self, index: int) -> float:
        """Total world distance covered by one robot (retained steps)."""
        path = self.path_of(index)
        return sum(a.distance_to(b) for a, b in zip(path, path[1:]))

    def activation_count(self, index: int) -> int:
        """How many retained instants the robot was active."""
        return sum(1 for s in self.steps if index in s.active)

    def min_pairwise_distance(self) -> float:
        """The smallest inter-robot distance over the retained history.

        The collision-avoidance audits assert this never falls to zero
        (Section 3.2's Voronoi-confinement guarantee).
        """
        best = float("inf")
        for positions in self._retained_configurations():
            for i in range(len(positions)):
                for j in range(i + 1, len(positions)):
                    best = min(best, positions[i].distance_to(positions[j]))
        return best

    def _retained_configurations(self) -> Iterator[Tuple[Vec2, ...]]:
        yield self.initial_positions
        for step in self.steps:
            yield step.positions

    def movements_of(self, index: int) -> List[Tuple[int, Vec2, Vec2]]:
        """Every actual movement of a robot as ``(time, before, after)``.

        Only retained steps where the position changed are reported;
        the "silence" audits check that idle robots produce none.
        """
        moves: List[Tuple[int, Vec2, Vec2]] = []
        previous = self.initial_positions[index]
        for step in self.steps:
            current = step.positions[index]
            if current != previous:
                moves.append((step.time, previous, current))
            previous = current
        return moves


def bounding_box(points: Sequence[Vec2]) -> Tuple[Vec2, Vec2]:
    """Axis-aligned bounding box of a point set as ``(lo, hi)``."""
    if not points:
        raise ValueError("bounding_box of an empty point set")
    return (
        Vec2(min(p.x for p in points), min(p.y for p in points)),
        Vec2(max(p.x for p in points), max(p.y for p in points)),
    )


def trace_crc(sim) -> str:
    """CRC32 over a simulator's retained trace and received bits.

    The blobs are the ``repr`` of each retained step's time, sorted
    activation set and exact ``(x, y)`` coordinates, then of every
    robot's received bit events in robot order.  Two runs with equal
    CRCs took the same trajectory and decoded the same traffic.
    ``sim`` is any engine with the scalar surface (``trace``,
    ``count``, ``protocol_of``).
    """
    crc = 0
    for step in sim.trace.steps:
        blob = repr(
            (
                step.time,
                tuple(sorted(step.active)),
                tuple((p.x, p.y) for p in step.positions),
            )
        )
        crc = zlib.crc32(blob.encode("ascii"), crc)
    for i in range(sim.count):
        for e in sim.protocol_of(i).received:
            crc = zlib.crc32(
                repr((i, e.time, e.src, e.dst, e.bit)).encode("ascii"), crc
            )
    return format(crc, "08x")
