"""The event-driven continuous-time LCM engine.

Where the round engine (:class:`~repro.model.simulator.Simulator`)
advances all robots in lockstep instants, this engine pops
``(time, phase, robot)`` events off a heap: each activation is three
events — **look** (snapshot the configuration), **compute** (run the
protocol on the snapshot), **move** (apply the destination) — whose
spacing is drawn from per-robot seeded
:class:`~repro.events.distributions.Distribution` streams, and a
pluggable :class:`~repro.events.delay.DelayModel` decides when each
position change becomes visible to each observer.

Two operating modes, selected by the
:class:`~repro.events.timing.TimingModel`:

* **scheduler-driven round emulation** — the engine still asks a
  classic :class:`~repro.model.scheduler.Scheduler` for activation
  sets, but executes each instant *through the heap*: all of a round's
  looks fire before any of its moves, moves apply simultaneously, and
  with unit durations plus :class:`~repro.events.delay.ZeroDelay` the
  run is **byte-identical** to the round engine — traces, bit streams,
  epochs, cache behaviour and monitor verdicts
  (``python -m repro.verify --event-oracle`` enforces this);
* **free-running** — no scheduler at all; every robot cycles
  Look → Compute → Move → gap on its own clock.  ``step()`` returns
  once one batch of simultaneous moves has been applied, recording an
  ordinal :class:`~repro.model.trace.TraceStep` whose ``active`` set
  is the robots that moved, so channels, monitors and protocols built
  against the round engine run unchanged.

The engine subclasses the round simulator, so the whole extension
surface (``_constrain_destination``, step listeners, phase hooks,
``displace`` fault injection, observation caching, ``look=`` policies
and ``visibility_radius``) is inherited; only the activation machinery
and the delay-model branch of the Look configuration source
(:meth:`EventSimulator._config_for_observation`) are overridden.

Huge-swarm extra (optional, off by default): ``lazy_views`` — protocols
are bound with an on-demand ``initial_positions`` view instead of an
eagerly materialized n-tuple, making swarm construction O(n) total
(pair it with ``visibility_radius``, whose spatial-hash build is O(n)
too).  Semantically identical for any protocol that treats
``initial_positions`` as the sequence it is declared to be.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Sequence as SequenceABC
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EventError, SchedulerError
from repro.events.delay import DelayModel, ZeroDelay
from repro.events.timing import TimingModel
from repro.geometry.vec import Vec2
from repro.model.looks import LookPolicy
from repro.model.observation import Observation
from repro.model.robot import Robot
from repro.model.scheduler import Scheduler
from repro.model.simulator import Simulator
from repro.model.trace import TracePolicy, TraceStep

__all__ = ["EventSimulator", "PHASES"]

#: Phase names in heap-rank order: at equal times all looks pop before
#: any compute, and all computes before any move — so a Look that is
#: simultaneous with a Move still sees the pre-move configuration,
#: matching the round engine's "observe P(t_j), then move" semantics.
PHASES: Tuple[str, str, str] = ("look", "compute", "move")

_LOOK, _COMPUTE, _MOVE = 0, 1, 2


class _LazyLocalView(SequenceABC):
    """An on-demand ``initial_positions`` sequence for protocol binding.

    Indexing computes ``to_local(P_i(t_0))`` on the fly (None for
    robots outside the observer's visibility), so binding an n-robot
    swarm allocates O(1) per robot instead of an n-tuple each.
    """

    __slots__ = ("_to_local", "_anchor", "_anchors", "_visible", "_count")

    def __init__(self, to_local, anchor, anchors, visible, count) -> None:
        self._to_local = to_local
        self._anchor = anchor
        self._anchors = anchors
        self._visible = visible
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(self[i] for i in range(*item.indices(self._count)))
        index = item
        if index < 0:
            index += self._count
        if not (0 <= index < self._count):
            raise IndexError(item)
        if index not in self._visible:
            return None
        return self._to_local(self._anchors[index], self._anchor)


class EventSimulator(Simulator):
    """A drop-in :class:`Simulator` driven by a priority queue of events.

    Args:
        robots: the swarm (same contract as the round engine).
        scheduler: activation policy — **required semantics depend on
            the timing mode**: scheduler-driven timing replays it round
            by round; free-running timing forbids it (the per-robot
            clocks are the schedule).
        timing: the :class:`TimingModel`; default
            :meth:`TimingModel.round_emulation` (unit phases,
            scheduler-driven — the oracle configuration).
        delay: the :class:`DelayModel`; default :class:`ZeroDelay`
            (instantaneous visibility, required for byte-identity with
            the round engine).
        seed: master seed of the per-robot duration RNG streams.
        registry: optional :class:`~repro.obs.registry.MetricsRegistry`
            — wires event counts, heap depth and per-phase latency
            histograms; None (default) costs nothing.
        record_events: keep an in-memory log of every popped event as
            ``(time, phase, robot)`` tuples (determinism tests).
        lazy_views: bind protocols with on-demand initial-position
            views (huge swarms; see the module docstring).
        caching / trace_policy / look / visibility_radius: forwarded to
            the base engine.  A ``look`` policy cannot be combined with
            a nonzero ``delay`` model: both would decide what a Look
            returns.
    """

    _config_error = EventError

    def __init__(
        self,
        robots: Sequence[Robot],
        scheduler: Optional[Scheduler] = None,
        *,
        timing: Optional[TimingModel] = None,
        delay: Optional[DelayModel] = None,
        seed: int = 0,
        registry=None,
        record_events: bool = False,
        lazy_views: bool = False,
        caching: bool = True,
        trace_policy: Optional[TracePolicy] = None,
        look: Optional[LookPolicy] = None,
        visibility_radius: Optional[float] = None,
    ) -> None:
        timing = timing if timing is not None else TimingModel.round_emulation()
        if not isinstance(timing, TimingModel):
            raise EventError(f"timing must be a TimingModel, got {timing!r}")
        delay = delay if delay is not None else ZeroDelay()
        if not isinstance(delay, DelayModel):
            raise EventError(f"delay must be a DelayModel, got {delay!r}")
        if not timing.scheduler_driven and scheduler is not None:
            raise EventError(
                "free-running timing owns the activation schedule; "
                "pass scheduler=None (or use a scheduler-driven TimingModel)"
            )
        if look is not None and not delay.is_zero:
            raise EventError(
                "a look policy and a nonzero delay model both decide what a "
                "Look returns; pass one of them"
            )
        # Attributes the base constructor consults must exist first:
        # _initial_local_view() runs inside super().__init__.
        self._timing = timing
        self._delay = delay
        self._lazy_views = bool(lazy_views)

        super().__init__(
            robots,
            scheduler,
            caching=caching,
            trace_policy=trace_policy,
            look=look,
            visibility_radius=visibility_radius,
        )

        n = self.count
        self._rngs: List[random.Random] = [
            random.Random(1_000_003 * seed + i) for i in range(n)
        ]
        self._heap: List[Tuple[float, int, int, int]] = []
        self._seq = 0
        self._clock = 0.0
        self._events_processed = 0
        self._pending_obs: List[Optional[Observation]] = [None] * n
        self._pending_target: List[Optional[Vec2]] = [None] * n
        # Per-robot position history (time, position) — only kept when
        # a delay model is active; the zero-delay fast path serves the
        # live configuration exactly like the round engine.
        self._track_history = not self._delay.is_zero
        self._history: List[List[Tuple[float, Vec2]]] = (
            [[(0.0, p)] for p in self._anchors] if self._track_history else []
        )
        self._event_log: Optional[List[Tuple[float, str, int]]] = (
            [] if record_events else None
        )
        # -- metrics (all None when no registry: zero overhead) --------
        self._m_events = None
        if registry is not None:
            self._m_events = tuple(
                registry.counter("event_count", phase=name) for name in PHASES
            )
            self._m_heap_depth = registry.gauge("event_heap_depth")
            self._m_heap_max = registry.gauge("event_heap_depth_max")
            self._m_latency = tuple(
                registry.histogram("event_phase_latency", phase=name)
                for name in PHASES
            )
            self._m_gap = registry.histogram("event_activation_gap")
            self._heap_max = 0
        if not timing.scheduler_driven:
            self._seed_free_cycles()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """The continuous event clock (time of the last popped event)."""
        return self._clock

    @property
    def timing(self) -> TimingModel:
        """The timing model driving this engine."""
        return self._timing

    @property
    def delay_model(self) -> DelayModel:
        """The observation-delay model."""
        return self._delay

    @property
    def events_processed(self) -> int:
        """Total events popped so far."""
        return self._events_processed

    @property
    def heap_depth(self) -> int:
        """Current number of pending events."""
        return len(self._heap)

    @property
    def pending_events(self) -> Tuple[Tuple[float, int, int, int], ...]:
        """The pending events, sorted — ``(time, phase, robot, seq)``."""
        return tuple(sorted(self._heap))

    @property
    def event_log(self) -> Tuple[Tuple[float, str, int], ...]:
        """The ``(time, phase, robot)`` log (``record_events=True`` only)."""
        if self._event_log is None:
            raise EventError("event log disabled; construct with record_events=True")
        return tuple(self._event_log)

    # ------------------------------------------------------------------
    # Heap primitives
    # ------------------------------------------------------------------
    def _push(self, time: float, phase: int, robot: int) -> None:
        heapq.heappush(self._heap, (time, phase, robot, self._seq))
        self._seq += 1
        if self._m_events is not None:
            depth = len(self._heap)
            self._m_heap_depth.set(depth)
            if depth > self._heap_max:
                self._heap_max = depth
                self._m_heap_max.set(depth)

    def _pop(self) -> Tuple[float, int, int, int]:
        event = heapq.heappop(self._heap)
        self._events_processed += 1
        if self._m_events is not None:
            self._m_events[event[1]].inc()
            self._m_heap_depth.set(len(self._heap))
        if self._event_log is not None:
            self._event_log.append((event[0], PHASES[event[1]], event[2]))
        return event

    def _sample_phase(self, name: str, phase: int, robot: int) -> float:
        duration = self._timing.sample_phase(name, self._rngs[robot])
        if self._m_events is not None:
            self._m_latency[phase].observe(duration)
        return duration

    def _sample_gap(self, robot: int) -> float:
        gap = self._timing.sample_gap(self._rngs[robot])
        if self._m_events is not None:
            self._m_gap.observe(gap)
        return gap

    def _seed_free_cycles(self) -> None:
        """Schedule every robot's first Look (free-running mode)."""
        for i in range(self.count):
            start = 0.0 if self._timing.activate_all_first else self._sample_gap(i)
            self._push(start, _LOOK, i)

    # ------------------------------------------------------------------
    # Event handling shared by both modes
    # ------------------------------------------------------------------
    def _handle_look(self, time: float, robot: int, hook, now: int) -> None:
        if hook is not None:
            hook("compute.observe", now)
        rhook = self._robot_phase_hook
        if rhook is not None:
            rhook("look", robot, now)
        self._pending_obs[robot] = self._observe(robot)
        self._push(time + self._sample_phase("look", _LOOK, robot), _COMPUTE, robot)

    def _handle_compute(self, time: float, robot: int, hook, now: int) -> None:
        if hook is not None:
            hook("compute.decide", now)
        rhook = self._robot_phase_hook
        if rhook is not None:
            rhook("compute", robot, now)
        spec = self._robots[robot]
        observation = self._pending_obs[robot]
        self._pending_obs[robot] = None
        if observation is None:  # pragma: no cover - heap contract
            raise EventError(f"compute event for robot {robot} without a look")
        local_target = spec.protocol.on_activate(observation)
        world_target = spec.frame.to_world(local_target, self._anchors[robot])
        clamped = self._positions[robot].clamped_toward(world_target, spec.sigma)
        self._pending_target[robot] = self._constrain_destination(robot, clamped)
        self._push(time + self._sample_phase("compute", _COMPUTE, robot), _MOVE, robot)

    def _apply_moves(
        self,
        new_positions: Dict[int, Vec2],
        move_times: Dict[int, float],
    ) -> None:
        """Simultaneous move application — same bookkeeping as the base."""
        moved = [
            index
            for index, position in new_positions.items()
            if position != self._positions[index]
        ]
        for index, position in new_positions.items():
            self._positions[index] = position
        if moved:
            self._epoch += 1
            for index in moved:
                self._pos_epoch[index] = self._epoch
            if self._track_history:
                for index in moved:
                    self._history[index].append(
                        (move_times[index], self._positions[index])
                    )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> TraceStep:
        """Advance one instant (scheduler-driven) or one move batch (free)."""
        if self._timing.scheduler_driven:
            return self._step_round()
        return self._step_free()

    def _step_round(self) -> TraceStep:
        """One emulated round, executed through the heap.

        All of the round's looks are pushed at the round's base time;
        the phase-duration draws space the compute and move events
        after them.  Every look therefore pops before any move — the
        active robots all observe the pre-move configuration — and the
        collected destinations apply simultaneously, exactly like the
        round engine.
        """
        hook = self._phase_hook
        rhook = self._robot_phase_hook
        now = self._time
        if hook is not None:
            hook("schedule", now)
        active = self._scheduler.activations(self._time, self.count)
        if not active:
            raise SchedulerError(f"empty activation set at t={self._time}")
        if any(not (0 <= i < self.count) for i in active):
            raise SchedulerError(f"activation set {sorted(active)} out of range")

        # One round spans 3 nominal time units (look/compute/move at
        # unit durations); the continuous clock of round r starts at 3r.
        base_time = 3.0 * now
        for i in sorted(active):
            self._push(base_time, _LOOK, i)

        if hook is not None:
            hook("compute", now)
        new_positions: Dict[int, Vec2] = {}
        move_times: Dict[int, float] = {}
        while self._heap:
            time, phase, robot, _ = self._pop()
            if time > self._clock:
                self._clock = time
            if phase == _LOOK:
                self._handle_look(time, robot, hook, now)
            elif phase == _COMPUTE:
                self._handle_compute(time, robot, hook, now)
            else:
                if rhook is not None:
                    rhook("move", robot, now)
                new_positions[robot] = self._pending_target[robot]
                self._pending_target[robot] = None
                move_times[robot] = time

        if hook is not None:
            hook("move", now)
        self._apply_moves(new_positions, move_times)

        if hook is not None:
            hook("record", now)
        step = TraceStep(
            time=self._time,
            active=frozenset(active),
            positions=tuple(self._positions),
        )
        self._trace.record(step)
        self._time += 1
        for listener in self._step_listeners:
            listener(self, step)
        if hook is not None:
            hook("end", now)
        return step

    def _step_free(self) -> TraceStep:
        """Pop events until one simultaneous move batch has applied.

        The recorded :class:`TraceStep` carries the ordinal step index
        as its integer ``time`` (the continuous clock is exposed as
        :attr:`clock`) and the batch's movers as its ``active`` set, so
        everything downstream of the trace stream — monitors, channels,
        observability — consumes the run unchanged.
        """
        if not self._heap:  # pragma: no cover - cycles self-perpetuate
            raise EventError("no pending events")
        hook = self._phase_hook
        rhook = self._robot_phase_hook
        now = self._time
        if hook is not None:
            hook("compute", now)
        new_positions: Dict[int, Vec2] = {}
        move_times: Dict[int, float] = {}
        while self._heap:
            time, phase, robot, _ = self._pop()
            if time < self._clock:
                raise EventError(
                    f"event clock ran backwards: popped t={time} at clock={self._clock}"
                )
            self._clock = time
            if phase == _LOOK:
                self._handle_look(time, robot, hook, now)
            elif phase == _COMPUTE:
                self._handle_compute(time, robot, hook, now)
            else:
                if rhook is not None:
                    rhook("move", robot, now)
                new_positions[robot] = self._pending_target[robot]
                self._pending_target[robot] = None
                move_times[robot] = time
                # Schedule the robot's next cycle: settle, then rest.
                settle = self._sample_phase("move", _MOVE, robot)
                self._push(time + settle + self._sample_gap(robot), _LOOK, robot)
                # The batch ends when no further move shares this
                # timestamp (same-time looks/computes popped already —
                # lower phase rank — and so observed pre-move).
                head = self._heap[0] if self._heap else None
                if head is None or head[0] != time or head[1] != _MOVE:
                    break

        if hook is not None:
            hook("move", now)
        self._apply_moves(new_positions, move_times)

        if hook is not None:
            hook("record", now)
        step = TraceStep(
            time=self._time,
            active=frozenset(new_positions),
            positions=tuple(self._positions),
        )
        self._trace.record(step)
        self._time += 1
        for listener in self._step_listeners:
            listener(self, step)
        if hook is not None:
            hook("end", now)
        return step

    # ------------------------------------------------------------------
    # Delayed observation
    # ------------------------------------------------------------------
    def _config_for_observation(self, index: int) -> Sequence[Vec2]:
        """What this robot's Look returns.

        Zero delay defers to the base seam — the live configuration
        object itself (preserving the identity-based observation-cache
        fast path, and with it byte-identity to the round engine), or
        whatever the ``look`` policy returns.  With a delay model,
        each entry is the *latest position change whose release time
        has passed*: a change of ``j`` at ``t`` is visible from
        ``delay_fcn(j, index, t)`` after ``t``, never before — so a
        delayed Look can lag reality but can never see the future.
        """
        if not self._track_history:
            return super()._config_for_observation(index)
        now = self._clock
        delay_fcn = self._delay.delay_fcn
        config: List[Vec2] = []
        for j in range(self.count):
            if j == index:
                # A robot senses itself live (its own odometry, not a
                # sighting that has to propagate).
                config.append(self._positions[j])
                continue
            history = self._history[j]
            position = history[0][1]
            for changed_at, changed_to in reversed(history):
                if changed_at <= 0.0:
                    position = changed_to
                    break
                lag = delay_fcn(j, index, changed_at)
                if lag < 0.0:
                    raise EventError(
                        f"delay model returned a negative delay {lag!r} "
                        f"for sender={j} receiver={index} t={changed_at}"
                    )
                if changed_at + lag <= now:
                    position = changed_to
                    break
            config.append(position)
        return config

    def displace(self, index: int, position: Vec2) -> None:
        """Fault injection; the change enters the visibility history."""
        super().displace(index, position)
        if self._track_history:
            self._history[index].append((self._clock, position))

    # ------------------------------------------------------------------
    # Huge-swarm hook
    # ------------------------------------------------------------------
    def _initial_local_view(
        self,
        index: int,
        robot: Robot,
        visible: frozenset,
        positions: Sequence[Vec2],
    ) -> Sequence[Optional[Vec2]]:
        if not self._lazy_views:
            return super()._initial_local_view(index, robot, visible, positions)
        return _LazyLocalView(
            robot.frame.to_local,
            self._anchors[index],
            self._anchors,
            visible,
            self.count,
        )
