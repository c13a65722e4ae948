"""The batch simulation engine — the granular kernel behind the scalar surface.

:class:`BatchSimulator` exposes the :class:`repro.model.simulator.
Simulator` surface (``step``/``run``/``run_until``, ``positions``,
``trace``, ``epoch``, ``stats``, ``geometry``, ``protocol_of``,
listeners, ``displace``) over struct-of-arrays state for one kind of
swarm: plain :class:`~repro.protocols.sync_granular.
SyncGranularProtocol` instances with one shared configuration (the
10k-100k regime this backend exists for; :data:`~repro.batch.kernel.
KERNEL_ENVELOPE` states the whole condition).  The per-robot protocol
objects are *not bound*; the :class:`~repro.batch.kernel.
GranularKernel` executes whole instants as array passes and
``protocol_of`` returns a :class:`~repro.batch.kernel.
KernelProtocolView` with the protocol's read/queue surface.

Every other swarm is refused with :class:`~repro.errors.ModelError`;
:func:`repro.batch.make_simulator` runs such swarms on the scalar
engine instead (:func:`repro.batch.supports` says which one it picks).

Traces are **bit-identical** to the scalar engine for the same robots,
scheduler and seed — that equivalence is enforced by the ``backend``
axis of the :mod:`repro.verify.differential` oracle over every matrix
cell the kernel can host.

Trace recording is the other big scalar cost at 100k robots: a
:class:`TraceStep` materialises ``n`` ``Vec2`` objects per instant.
:class:`BatchTrace` defers that work for instants that nobody will look
at (stride-skipped steps with no listeners attached), keeping the
latest configuration as two array copies until someone asks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch import require_numpy
from repro.batch.arrays import SwarmArrays
from repro.batch.geometry import BatchGeometry
from repro.batch.kernel import (
    DEFAULT_OVERHEARD_LIMIT,
    KERNEL_ENVELOPE,
    GranularKernel,
    kernel_eligible,
)
from repro.errors import ModelError, SchedulerError
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.scheduler import Scheduler, SynchronousScheduler
from repro.model.trace import Trace, TracePolicy, TraceStep
from repro.perf.counters import PerfStats

__all__ = ["BatchSimulator", "BatchTrace"]


class BatchTrace(Trace):
    """A :class:`Trace` with a lazy latest-step fast path.

    The batch engine's ``run``/``run_until`` skip building the
    ``TraceStep`` for instants the policy strides over when no step
    listeners are attached: the latest configuration is kept as two
    array copies and only turned into ``Vec2`` tuples when ``latest``
    or ``positions_at`` is actually consulted.
    """

    def __init__(
        self,
        initial_positions: Tuple[Vec2, ...],
        policy: Optional[TracePolicy] = None,
    ) -> None:
        super().__init__(
            initial_positions=initial_positions,
            policy=policy if policy is not None else TracePolicy(),
        )
        self._pending = None

    def note_step(self, time: int, active, px, py) -> None:
        """Record a stride-skipped step without materialising it."""
        self.skipped += 1
        self._latest = None
        self._pending = (time, active, px.copy(), py.copy())

    def record(self, step: TraceStep) -> None:
        self._pending = None
        super().record(step)

    def _materialize_pending(self) -> None:
        pending = self._pending
        if pending is not None:
            self._pending = None
            time, active, px, py = pending
            self._latest = TraceStep(
                time=time,
                active=active,
                positions=tuple(
                    Vec2(float(x), float(y)) for x, y in zip(px, py)
                ),
            )

    @property
    def latest(self) -> Optional[TraceStep]:
        self._materialize_pending()
        return super().latest

    def positions_at(self, time: int) -> Tuple[Vec2, ...]:
        self._materialize_pending()
        return super().positions_at(time)


class BatchSimulator:
    """Array-backed SSM engine with the scalar ``Simulator`` surface.

    Args:
        robots: the swarm; same validation rules (and error messages)
            as the scalar constructor, and it must lie in the kernel's
            envelope (:func:`~repro.batch.kernel.kernel_eligible`).
        scheduler: activation policy; defaults to fully synchronous.
        caching: enable the epoch-memoised geometry.  Results never
            depend on it.
        trace_policy: trace retention; pair large swarms with a stride
            so recording stays array-speed (see :class:`BatchTrace`).
        overheard_limit: swarm size up to which per-robot
            ``overheard`` logs are maintained.

    Raises:
        ModelError: on the scalar constructor's input errors, or when
            the swarm is outside the kernel's envelope.
    """

    backend = "batch"

    def __init__(
        self,
        robots: Sequence[Robot],
        scheduler: Optional[Scheduler] = None,
        *,
        caching: bool = True,
        trace_policy: Optional[TracePolicy] = None,
        overheard_limit: int = DEFAULT_OVERHEARD_LIMIT,
    ) -> None:
        self._np = require_numpy()
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
        identified = all(v is not None for v in ids)
        if not identified and any(v is not None for v in ids):
            raise ModelError(
                "either every robot has an observable_id (identified system) "
                "or none does (anonymous system)"
            )
        if identified and len(set(ids)) != len(ids):
            raise ModelError("observable ids must be pairwise distinct")
        if not kernel_eligible(robots):
            raise ModelError(
                "the batch kernel cannot host this swarm: it runs "
                f"{KERNEL_ENVELOPE}; build it with the scalar Simulator"
            )

        self._robots = list(robots)
        self._scheduler = (
            scheduler if scheduler is not None else SynchronousScheduler()
        )
        self._arrays = SwarmArrays(self._robots)
        self._caching = bool(caching)
        self._stats = PerfStats()
        self._c_realloc = self._stats.registry.counter("batch_array_reallocs")
        self._c_realloc.inc(8)  # the SoA columns allocated above
        self._epoch = 0
        self._time = 0
        self._trace = BatchTrace(
            initial_positions=tuple(positions), policy=trace_policy
        )
        self._geometry = BatchGeometry(stats=self._stats, enabled=self._caching)
        self._step_listeners: List[Callable] = []
        self._fault_listeners: List[Callable] = []
        self._phase_hook: Optional[Callable[[str, int], None]] = None

        self._kernel = GranularKernel(
            self._robots, self._arrays, self._stats, overheard_limit
        )

        # A synchronous schedule is stateless and activates everyone:
        # resolve it once instead of building an n-element frozenset
        # per instant.
        self._sync_fast = type(self._scheduler) is SynchronousScheduler
        self._sync_cached: Optional[Tuple[frozenset, object]] = None

    # ------------------------------------------------------------------
    # Introspection (the scalar surface)
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
        """Current world positions ``P(t_j)`` (materialised on demand)."""
        return self._arrays.positions_tuple()

    @property
    def trace(self) -> BatchTrace:
        """The recorded history so far."""
        return self._trace

    @property
    def epoch(self) -> int:
        """The configuration epoch (bumps only when positions change)."""
        return self._epoch

    @property
    def stats(self) -> PerfStats:
        """Live performance counters (incl. the ``batch_*`` metrics)."""
        return self._stats

    @property
    def caching_enabled(self) -> bool:
        """Whether the epoch-based reuse paths are active."""
        return self._caching

    @property
    def mode(self) -> str:
        """Always ``"kernel"``: every instant runs as array passes."""
        return "kernel"

    @property
    def geometry(self) -> BatchGeometry:
        """Derived geometry of ``P(t_j)``, memoised per epoch."""
        arrays = self._arrays
        self._geometry.update(self._epoch, lambda: (arrays.px, arrays.py))
        return self._geometry

    def protocol_of(self, index: int):
        """Robot ``index``'s protocol surface.

        A :class:`~repro.batch.kernel.KernelProtocolView` with the
        read/queue API of the protocol instance it stands in for.
        """
        if not (0 <= index < self.count):
            raise IndexError(index)
        return self._kernel.view(index)

    # ------------------------------------------------------------------
    # Listeners / hooks
    # ------------------------------------------------------------------
    def add_step_listener(self, listener) -> None:
        """Subscribe to the live trace stream (see scalar docs)."""
        self._step_listeners.append(listener)

    def remove_step_listener(self, listener) -> None:
        """Unsubscribe a previously added step listener."""
        self._step_listeners.remove(listener)

    def add_fault_listener(self, listener) -> None:
        """Subscribe to out-of-band fault injections."""
        self._fault_listeners.append(listener)

    def remove_fault_listener(self, listener) -> None:
        """Unsubscribe a previously added fault listener."""
        self._fault_listeners.remove(listener)

    def set_phase_hook(self, hook):
        """Install (or clear) the phase-boundary hook.

        Fires the same top-level phases as the scalar engine
        (``schedule``/``compute``/``move``/``record``/``end``), but
        not the scalar engine's per-robot dotted sub-phases: the kernel
        has no per-robot compute loop to attribute them to.  Returns
        the previously installed hook.
        """
        previous = self._phase_hook
        self._phase_hook = hook
        return previous

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> TraceStep:
        """Advance one instant: activate, observe, compute, move."""
        return self._step_impl(materialize=True)

    def run(self, steps: int) -> Trace:
        """Advance a fixed number of instants; returns the trace."""
        if steps < 0:
            raise ModelError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self._step_impl(materialize=False)
        return self._trace

    def run_until(self, predicate, max_steps: int) -> bool:
        """Step until ``predicate(self)`` holds or ``max_steps`` elapse."""
        if max_steps < 0:
            raise ModelError(f"max_steps must be >= 0, got {max_steps}")
        for _ in range(max_steps):
            if predicate(self):
                return True
            self._step_impl(materialize=False)
        return predicate(self)

    def _step_impl(self, materialize: bool) -> Optional[TraceStep]:
        hook = self._phase_hook
        now = self._time
        if hook is not None:
            hook("schedule", now)
        active, active_arr = self._activations()
        if hook is not None:
            hook("compute", now)
        self._kernel.decode(now, active_arr)
        moves = self._kernel.compute_moves(active_arr)
        if hook is not None:
            hook("move", now)
        self._apply_kernel_moves(*moves)

        if hook is not None:
            hook("record", now)
        policy = self._trace.policy
        retained = policy.stride <= 1 or now % policy.stride == 0
        step: Optional[TraceStep] = None
        if materialize or retained or self._step_listeners:
            step = TraceStep(
                time=now, active=active, positions=self._arrays.positions_tuple()
            )
            self._trace.record(step)
        else:
            self._trace.note_step(now, active, self._arrays.px, self._arrays.py)
        self._time += 1
        if step is not None:
            for listener in self._step_listeners:
                listener(self, step)
        if hook is not None:
            hook("end", now)
        return step

    def _activations(self):
        np = self._np
        if self._sync_fast:
            cached = self._sync_cached
            if cached is None:
                active = self._scheduler.activations(self._time, self.count)
                arr = np.fromiter(sorted(active), dtype=np.int64, count=len(active))
                cached = self._sync_cached = (frozenset(active), arr)
            return cached
        active = self._scheduler.activations(self._time, self.count)
        if not active:
            raise SchedulerError(f"empty activation set at t={self._time}")
        if any(not (0 <= i < self.count) for i in active):
            raise SchedulerError(f"activation set {sorted(active)} out of range")
        arr = np.fromiter(sorted(active), dtype=np.int64, count=len(active))
        return frozenset(active), arr

    def _apply_kernel_moves(self, silent_idx, wx, wy, engaged_moves) -> None:
        arrays = self._arrays
        moved_idx = None
        if len(silent_idx):
            mask = (wx != arrays.px[silent_idx]) | (wy != arrays.py[silent_idx])
            if mask.any():
                moved_idx = silent_idx[mask]
            arrays.px[silent_idx] = wx
            arrays.py[silent_idx] = wy
        engaged_moved = []
        for j, position in engaged_moves:
            if position.x != arrays.px[j] or position.y != arrays.py[j]:
                engaged_moved.append(j)
            arrays.px[j] = position.x
            arrays.py[j] = position.y
        if moved_idx is None and not engaged_moved:
            return
        self._epoch += 1
        if moved_idx is not None:
            arrays.pos_epoch[moved_idx] = self._epoch
        for j in engaged_moved:
            arrays.pos_epoch[j] = self._epoch

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def displace(self, index: int, position: Vec2) -> None:
        """Teleport a robot out-of-band — a *transient fault*.

        Same semantics and error messages as the scalar engine; the
        kernel's decode pipeline additionally switches the robot onto
        the per-observer classification path until it is back on its
        home point.
        """
        if not (0 <= index < self.count):
            raise ModelError(f"unknown robot {index}")
        arrays = self._arrays
        hit = (arrays.px == position.x) & (arrays.py == position.y)
        hit[index] = False
        if hit.any():
            first = int(self._np.nonzero(hit)[0][0])
            raise ModelError(f"displacement collides with robot {first}")
        old = arrays.position(index)
        arrays.px[index] = position.x
        arrays.py[index] = position.y
        self._epoch += 1
        arrays.pos_epoch[index] = self._epoch
        self._kernel.notify_displaced(index)
        for listener in self._fault_listeners:
            listener(self, index, old, position)
