"""The SSM simulation engine.

Implements the computation step of Section 2 exactly:

    "At each time instant ``t_j``, each robot ``r_i`` is either active
    or inactive.  The former means that, during the computation step
    ``(t_j, t_{j+1})``, using a given algorithm, ``r_i`` computes in
    its local coordinate system a position ``p_i(t_{j+1})`` depending
    only on the system configuration at ``t_j``, and moves towards
    ``p_i(t_{j+1})`` [...].  In every single activation, the distance
    traveled by any robot ``r`` is bounded by ``sigma_r``."

All active robots of an instant observe the *same* configuration
``P(t_j)`` and move simultaneously; inactive robots stay put.

Hot-path layout
---------------

The engine tracks a **configuration epoch**: a counter bumped only when
some position actually changes (a protocol movement or a
:meth:`Simulator.displace` fault).  Everything derived from the
configuration is cached against that epoch:

* per-robot visibility sets are computed once at construction (they
  depend only on the immutable anchors, and a spatial hash keeps a
  limited-visibility build O(n));
* each robot's last observation is kept and reused — wholesale when
  the epoch did not advance, per-entry for robots whose position epoch
  predates the cached build (silent robots under asynchronous
  schedules are the common case);
* derived geometry (SEC, Voronoi, hull, relative naming) is served by
  a :class:`~repro.perf.cache.CachedGeometry` facade via
  :attr:`Simulator.geometry`.

Caching is semantically transparent — ``caching=False`` runs the
original always-rebuild pipeline and produces bit-identical traces —
and observable through :attr:`Simulator.stats`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ModelError, SchedulerError
from repro.geometry.vec import Vec2
from repro.model.looks import LookPolicy
from repro.model.observation import Observation, ObservedRobot
from repro.model.protocol import BindingInfo
from repro.model.robot import Robot
from repro.model.scheduler import Scheduler, SynchronousScheduler
from repro.model.trace import Trace, TracePolicy, TraceStep
from repro.perf.cache import CachedGeometry
from repro.perf.counters import PerfStats
from repro.perf.spatial import SpatialHashGrid

__all__ = ["Simulator"]


class _ObservationCacheEntry:
    """One robot's last built observation, with reuse metadata."""

    __slots__ = ("epoch", "live", "config_ref", "world", "observed", "index_map")

    def __init__(
        self,
        epoch: int,
        live: bool,
        config_ref: Optional[Sequence[Vec2]],
        world: Tuple[Vec2, ...],
        observed: Tuple[ObservedRobot, ...],
        index_map: Dict[int, Vec2],
    ) -> None:
        self.epoch = epoch
        self.live = live
        self.config_ref = config_ref
        self.world = world
        self.observed = observed
        self.index_map = index_map


class Simulator:
    """Drives a swarm of robots under a scheduler.

    Args:
        robots: the swarm; at least one robot, pairwise-distinct
            initial positions, and pairwise-distinct protocol
            instances.
        scheduler: activation policy; defaults to fully synchronous.
        caching: enable the epoch-based hot-path caches (default).
            Disabling them changes performance only, never results.
        trace_policy: optional memory bound for the recorded trace
            (ring buffer / stride sampling; see
            :class:`~repro.model.trace.TracePolicy`).
        look: optional :class:`~repro.model.looks.LookPolicy` deciding
            what each Look returns (stale looks, sensing noise); None
            is the SSM default, the instantaneous ``P(t_j)``.
        visibility_radius: optional limited visibility (world units,
            positive): every observation and the bound ``P(t_0)``
            knowledge are restricted to robots within this distance of
            the observer.  None (default) is the paper's model, where
            every robot sees every robot.

    The constructor *binds* every protocol: each robot learns its
    tracking index, the swarm size, its movement bound in local units,
    the initial configuration ``P(t_0)`` expressed in its stationary
    private frame, and (in identified systems) the observable IDs.
    """

    #: Raised for an invalid constructor argument; the event engine
    #: narrows it to :class:`~repro.errors.EventError`.
    _config_error = ModelError

    def __init__(
        self,
        robots: Sequence[Robot],
        scheduler: Optional[Scheduler] = None,
        *,
        caching: bool = True,
        trace_policy: Optional[TracePolicy] = None,
        look: Optional[LookPolicy] = None,
        visibility_radius: Optional[float] = None,
    ) -> None:
        if visibility_radius is not None and visibility_radius <= 0.0:
            raise self._config_error(
                f"visibility_radius must be positive, got {visibility_radius}"
            )
        if not robots:
            raise ModelError("a simulation needs at least one robot")
        protocols = [r.protocol for r in robots]
        if len({id(p) for p in protocols}) != len(protocols):
            raise ModelError("every robot needs its own protocol instance")
        positions = [r.position for r in robots]
        seen: Dict[Vec2, int] = {}
        for i, p in enumerate(positions):
            j = seen.get(p)
            if j is not None:
                raise ModelError(
                    f"robots {j} and {i} share the initial position {p!r}"
                )
            seen[p] = i
        ids = [r.observable_id for r in robots]
        self._identified = all(v is not None for v in ids)
        if not self._identified and any(v is not None for v in ids):
            raise ModelError(
                "either every robot has an observable_id (identified system) "
                "or none does (anonymous system)"
            )
        if self._identified and len(set(ids)) != len(ids):
            raise ModelError("observable ids must be pairwise distinct")

        self._robots = list(robots)
        self._scheduler = scheduler if scheduler is not None else SynchronousScheduler()
        self._positions: List[Vec2] = positions[:]
        self._anchors: Tuple[Vec2, ...] = tuple(positions)
        self._time = 0
        self._trace = Trace(
            initial_positions=tuple(positions),
            policy=trace_policy if trace_policy is not None else TracePolicy(),
        )
        self._look = look
        if look is not None:
            look.bind(self)

        # --- hot-path state -------------------------------------------
        self._caching = bool(caching)
        self._stats = PerfStats()
        self._epoch = 0
        self._pos_epoch: List[int] = [0] * len(self._robots)
        self._observed_ids: Tuple[Optional[int], ...] = (
            tuple(ids) if self._identified else (None,) * len(self._robots)
        )
        # Visibility depends only on the immutable anchors: compute it
        # once per robot instead of on every observe.  Under unlimited
        # visibility every robot sees the same full set, so one shared
        # frozenset/tuple serves all n robots — O(n) memory instead of
        # the O(n²) that made 10k-robot swarms impossible to build.
        self._visibility_radius = visibility_radius
        if visibility_radius is None:
            full_set = frozenset(range(len(self._robots)))
            full_list = tuple(range(len(self._robots)))
            self._visible_sets: Tuple[frozenset, ...] = (full_set,) * len(self._robots)
            self._visible_lists: Tuple[Tuple[int, ...], ...] = (full_list,) * len(
                self._robots
            )
        else:
            # A spatial hash with cell size = radius answers each
            # robot's query from its 3x3 cell neighbourhood: O(n)
            # construction instead of the all-pairs O(n²) scan.
            self._grid = SpatialHashGrid(cell_size=visibility_radius)
            self._grid.extend(positions)
            self._point_index = seen  # position -> robot, from the check above
            self._visible_sets = tuple(
                self._compute_visible_from(i) for i in range(len(self._robots))
            )
            self._visible_lists = tuple(tuple(sorted(v)) for v in self._visible_sets)
        # Per-robot (to_local, anchor) pairs: the observe loop is the
        # hottest code in the engine, so attribute chases are hoisted.
        self._local_transforms: Tuple[Tuple[Callable, Vec2], ...] = tuple(
            (robot.frame.to_local, self._anchors[i])
            for i, robot in enumerate(self._robots)
        )
        self._obs_cache: List[Optional[_ObservationCacheEntry]] = [None] * len(
            self._robots
        )
        self._geometry = CachedGeometry(stats=self._stats, enabled=self._caching)
        self._step_listeners: List[Callable[["Simulator", TraceStep], None]] = []
        self._fault_listeners: List[Callable[["Simulator", int, Vec2, Vec2], None]] = []
        # Observability injection point: when set, called at every
        # phase boundary of step().  None (the default) costs one
        # identity check per phase — the zero-overhead-when-disabled
        # contract of repro.obs.
        self._phase_hook: Optional[Callable[[str, int], None]] = None
        # Per-robot Look/Compute/Move hook — the vector-clock injection
        # point of repro.obs.causal.  Same contract as the phase hook:
        # None by default, one identity check per robot phase.
        self._robot_phase_hook: Optional[Callable[[str, int, int], None]] = None

        observable_ids = tuple(ids) if self._identified else None
        for index, robot in enumerate(self._robots):
            visible = self._visible_from(index)
            initial_local = self._initial_local_view(index, robot, visible, positions)
            robot.protocol.bind(
                BindingInfo(
                    index=index,
                    count=len(self._robots),
                    sigma=robot.sigma / robot.frame.scale,
                    initial_positions=initial_local,
                    observable_ids=observable_ids,
                    visibility_radius=(
                        visibility_radius / robot.frame.scale
                        if visibility_radius is not None
                        else None
                    ),
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def time(self) -> int:
        """The current instant ``t_j``."""
        return self._time

    @property
    def count(self) -> int:
        """Number of robots."""
        return len(self._robots)

    @property
    def robots(self) -> Tuple[Robot, ...]:
        """The robot specifications (read-only view)."""
        return tuple(self._robots)

    @property
    def positions(self) -> Tuple[Vec2, ...]:
        """Current world positions ``P(t_j)``."""
        return tuple(self._positions)

    @property
    def trace(self) -> Trace:
        """The recorded history so far."""
        return self._trace

    @property
    def epoch(self) -> int:
        """The configuration epoch (bumps only when positions change)."""
        return self._epoch

    @property
    def look(self) -> Optional[LookPolicy]:
        """The Look policy; None is the SSM default (``P(t_j)`` as is)."""
        return self._look

    @property
    def stats(self) -> PerfStats:
        """Live performance counters of the caching layer."""
        return self._stats

    @property
    def caching_enabled(self) -> bool:
        """Whether the hot-path caches are active."""
        return self._caching

    @property
    def geometry(self) -> CachedGeometry:
        """Derived geometry of ``P(t_j)``, memoised per epoch.

        The facade is synchronised with the current configuration on
        every access; consumers may call it on every activation and pay
        the geometric cost only when the configuration changed.
        """
        self._geometry.update(self._epoch, lambda: self._positions)
        return self._geometry

    def protocol_of(self, index: int):
        """The protocol instance of robot ``index``."""
        return self._robots[index].protocol

    # ------------------------------------------------------------------
    # Trace stream
    # ------------------------------------------------------------------
    def add_step_listener(
        self, listener: Callable[["Simulator", TraceStep], None]
    ) -> None:
        """Subscribe to the live trace stream.

        The listener is called after every :meth:`step`, with the
        simulator and the freshly recorded :class:`TraceStep` — even
        when the trace's retention policy drops the step.  Invariant
        monitors (:mod:`repro.verify.monitors`) attach here so they see
        the complete history regardless of trace bounding.  Listeners
        must not mutate the simulation.
        """
        self._step_listeners.append(listener)

    def remove_step_listener(
        self, listener: Callable[["Simulator", TraceStep], None]
    ) -> None:
        """Unsubscribe a previously added step listener."""
        self._step_listeners.remove(listener)

    def add_fault_listener(
        self, listener: Callable[["Simulator", int, Vec2, Vec2], None]
    ) -> None:
        """Subscribe to out-of-band fault injections.

        The listener is called after every :meth:`displace` with
        ``(simulator, index, old_position, new_position)``.  The
        observability recorder uses this to put transient faults on
        the run's event timeline.
        """
        self._fault_listeners.append(listener)

    def remove_fault_listener(
        self, listener: Callable[["Simulator", int, Vec2, Vec2], None]
    ) -> None:
        """Unsubscribe a previously added fault listener."""
        self._fault_listeners.remove(listener)

    def set_phase_hook(
        self, hook: Optional[Callable[[str, int], None]]
    ) -> Optional[Callable[[str, int], None]]:
        """Install (or clear, with None) the phase-boundary hook.

        The hook is called as ``hook(phase, time)`` when :meth:`step`
        enters each of its phases — ``"schedule"``, ``"compute"``
        (the observe+compute loop), ``"move"``, ``"record"`` — and
        once more as ``hook("end", time)`` after the step listeners
        ran.  Inside the compute loop the hook also fires at the two
        per-robot sub-phases, ``"compute.observe"`` (building the
        robot's observation) and ``"compute.decide"`` (the protocol's
        Compute plus target clamping); the dotted names let the span
        profiler attribute *self* time to the stage that actually
        spent it while rolling totals up into ``compute``.  An
        :class:`~repro.obs.recorder.ObsRecorder` pairs these calls
        with an injected monotonic clock to build the hot-path
        profile; the hook must not mutate the simulation.  Returns the
        previously installed hook.
        """
        previous = self._phase_hook
        self._phase_hook = hook
        return previous

    def set_robot_phase_hook(
        self, hook: Optional[Callable[[str, int, int], None]]
    ) -> Optional[Callable[[str, int, int], None]]:
        """Install (or clear, with None) the per-robot phase hook.

        The hook is called as ``hook(phase, robot, time)`` at each
        robot's Look (``"look"``, just before its observation is
        built), Compute (``"compute"``, just before its protocol runs)
        and Move (``"move"``, as its destination is applied) — the
        three phases of one activation cycle.  The causal tracer
        (:mod:`repro.obs.causal`) advances each robot's vector clock
        here; the hook must not mutate the simulation.  Returns the
        previously installed hook.
        """
        previous = self._robot_phase_hook
        self._robot_phase_hook = hook
        return previous

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> TraceStep:
        """Advance one instant: activate, observe, compute, move."""
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

        # All active robots observe the same configuration P(t_j)...
        if hook is not None:
            hook("compute", now)
        new_positions: Dict[int, Vec2] = {}
        for index in sorted(active):
            robot = self._robots[index]
            if hook is not None:
                hook("compute.observe", now)
            if rhook is not None:
                rhook("look", index, now)
            observation = self._observe(index)
            if hook is not None:
                hook("compute.decide", now)
            if rhook is not None:
                rhook("compute", index, now)
            local_target = robot.protocol.on_activate(observation)
            world_target = robot.frame.to_world(local_target, self._anchors[index])
            clamped = self._positions[index].clamped_toward(world_target, robot.sigma)
            new_positions[index] = self._constrain_destination(index, clamped)

        # ...and move simultaneously.  The epoch only advances when a
        # position actually changed; per-robot position epochs let
        # observers keep cached entries for everyone who stayed put.
        if hook is not None:
            hook("move", now)
        moved = [
            index
            for index, position in new_positions.items()
            if position != self._positions[index]
        ]
        for index, position in new_positions.items():
            if rhook is not None:
                rhook("move", index, now)
            self._positions[index] = position
        if moved:
            self._epoch += 1
            for index in moved:
                self._pos_epoch[index] = self._epoch

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

    def run(self, steps: int) -> Trace:
        """Advance a fixed number of instants; returns the trace."""
        if steps < 0:
            raise ModelError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()
        return self._trace

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_steps: int,
    ) -> bool:
        """Step until ``predicate(self)`` holds or ``max_steps`` elapse.

        Returns True when the predicate was satisfied.  The predicate
        is also checked before the first step.
        """
        if max_steps < 0:
            raise ModelError(f"max_steps must be >= 0, got {max_steps}")
        for _ in range(max_steps):
            if predicate(self):
                return True
            self.step()
        return predicate(self)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def displace(self, index: int, position: Vec2) -> None:
        """Teleport a robot out-of-band — a *transient fault*.

        This is a testing / fault-injection API, not part of the model:
        it corrupts the configuration the way the self-stabilization
        discussion of Section 5 envisages (arbitrary transient state
        perturbation).  Protocol-internal state (homes, granulars) is
        deliberately left stale; recovering from that is exactly what
        :mod:`repro.stabilization` exists for.

        A displacement always bumps the configuration epoch, so every
        cached derived quantity is recomputed on next use.
        """
        if not (0 <= index < self.count):
            raise ModelError(f"unknown robot {index}")
        for i, existing in enumerate(self._positions):
            if i != index and existing == position:
                raise ModelError(f"displacement collides with robot {i}")
        old = self._positions[index]
        self._positions[index] = position
        self._epoch += 1
        self._pos_epoch[index] = self._epoch
        for listener in self._fault_listeners:
            listener(self, index, old, position)

    # ------------------------------------------------------------------
    # Internals / extension hooks
    # ------------------------------------------------------------------
    def _constrain_destination(self, index: int, destination: Vec2) -> Vec2:
        """Environment-level movement constraint hook.

        The base model is the continuous plane (identity).  The
        Section 5 discrete worlds (:mod:`repro.discrete`) override this
        to snap destinations onto a lattice.
        """
        return destination

    def _initial_local_view(
        self,
        index: int,
        robot: Robot,
        visible: frozenset,
        positions: Sequence[Vec2],
    ) -> Sequence[Optional[Vec2]]:
        """The ``initial_positions`` sequence handed to one protocol bind.

        Entry ``i`` is ``P_i(t_0)`` in the observer's private frame, or
        None for robots outside its visibility range.  The base engine
        materializes the tuple eagerly; the event engine's huge-swarm
        mode (:class:`repro.events.engine.EventSimulator` with
        ``lazy_views=True``) overrides this with an on-demand view so
        building an n-robot swarm stays O(n) instead of O(n²).
        """
        anchor = self._anchors[index]
        to_local = robot.frame.to_local
        return tuple(
            to_local(p, anchor) if i in visible else None
            for i, p in enumerate(positions)
        )

    def _compute_visible_from(self, index: int) -> frozenset:
        """Visibility of ``index`` from scratch (anchors only)."""
        radius = self._visibility_radius
        if radius is None:
            return frozenset(range(self.count))
        visible = {index}
        for point in self._grid.neighbors_within(self._anchors[index], radius):
            visible.add(self._point_index[point])
        return frozenset(visible)

    def _visible_from(self, index: int) -> frozenset:
        """Indices visible to ``index`` (always includes itself).

        Evaluated on the anchor configuration ``P(t_0)``: protocol
        movements stay within granular-scale bands, so the visibility
        graph is treated as static for a run — which also makes the
        per-robot result cacheable at construction time.
        """
        if self._caching:
            return self._visible_sets[index]
        return self._compute_visible_from(index)

    def _config_for_observation(self, index: int) -> Sequence[Vec2]:
        """The configuration an activation's Look phase returns.

        The SSM default is the instantaneous ``P(t_j)``; a
        :class:`~repro.model.looks.LookPolicy` (``look=``) replaces it,
        e.g. with a boundedly stale or a noisy configuration.
        """
        if self._look is None:
            return self._positions
        return self._look.config(self, index)

    def _observe(self, index: int) -> Observation:
        # Look policies may have side effects (stale-look bookkeeping,
        # noise RNG draws), so the config is fetched unconditionally —
        # caching must never change how often they run.
        config = self._config_for_observation(index)
        if not self._caching:
            return self._observe_uncached(index, config)

        live = config is self._positions
        entry = self._obs_cache[index]
        if entry is not None:
            if (live and entry.live and entry.epoch == self._epoch) or (
                not live and entry.config_ref is config
            ):
                # Nothing the observer can see has changed: reuse the
                # whole snapshot (only the timestamp differs).
                self._stats.cache_hits += 1
                self._stats.observations_reused += len(entry.observed)
                return Observation(
                    time=self._time,
                    self_index=index,
                    robots=entry.observed,
                    _by_index=entry.index_map,
                )

        self._stats.cache_misses += 1
        visible = self._visible_lists[index]
        to_local, anchor = self._local_transforms[index]
        obs_ids = self._observed_ids
        built: List[ObservedRobot] = []
        reused = 0

        if entry is not None and live and entry.live:
            # Per-entry reuse by position epoch: integer compare per
            # robot instead of a transform + allocation.
            pos_epoch = self._pos_epoch
            base_epoch = entry.epoch
            old = entry.observed
            for k, i in enumerate(visible):
                if pos_epoch[i] <= base_epoch:
                    built.append(old[k])
                    reused += 1
                else:
                    built.append(
                        ObservedRobot(
                            index=i,
                            position=to_local(config[i], anchor),
                            observable_id=obs_ids[i],
                        )
                    )
        elif entry is not None:
            # Cached build came from (or is compared against) a
            # non-live snapshot: reuse entries whose world position is
            # value-identical.
            old_world = entry.world
            old = entry.observed
            for k, i in enumerate(visible):
                p = config[i]
                if p == old_world[k]:
                    built.append(old[k])
                    reused += 1
                else:
                    built.append(
                        ObservedRobot(
                            index=i,
                            position=to_local(p, anchor),
                            observable_id=obs_ids[i],
                        )
                    )
        else:
            for i in visible:
                built.append(
                    ObservedRobot(
                        index=i,
                        position=to_local(config[i], anchor),
                        observable_id=obs_ids[i],
                    )
                )

        observed = tuple(built)
        index_map = {r.index: r.position for r in observed}
        self._stats.observations_built += len(observed) - reused
        self._stats.observations_reused += reused
        self._obs_cache[index] = _ObservationCacheEntry(
            epoch=self._epoch,
            live=live,
            config_ref=None if live else config,
            world=tuple(config[i] for i in visible),
            observed=observed,
            index_map=index_map,
        )
        return Observation(
            time=self._time, self_index=index, robots=observed, _by_index=index_map
        )

    def _observe_uncached(self, index: int, config: Sequence[Vec2]) -> Observation:
        """The original always-rebuild pipeline (A/B baseline)."""
        robot = self._robots[index]
        anchor = self._anchors[index]
        visible = self._visible_from(index)
        observed = tuple(
            ObservedRobot(
                index=i,
                position=robot.frame.to_local(config[i], anchor),
                observable_id=self._robots[i].observable_id if self._identified else None,
            )
            for i in range(self.count)
            if i in visible
        )
        self._stats.observations_built += len(observed)
        return Observation(time=self._time, self_index=index, robots=observed)
