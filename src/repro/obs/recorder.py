"""The run recorder: one object that watches everything.

An :class:`ObsRecorder` attaches to a simulator and turns the run into
a structured event stream plus a metrics registry:

* the **step stream** (:meth:`~repro.model.simulator.Simulator.
  add_step_listener`) yields one ``step`` + one ``schedule`` event per
  instant;
* the **fault stream** yields ``displacement`` events for every
  out-of-band teleport;
* the **phase hook** plus an injected monotonic clock yields timed
  ``phase`` events — the hot-path wall-time profile (inject a fake
  clock to keep tests deterministic);
* light **protocol-side sinks** yield the bit-lifecycle events
  (encode-started / moved / receipt / overheard, with acks
  synthesized when a sender advances to its next bit on a flow);
* the **monitor hook** (:func:`repro.verify.monitors.set_flag_hook`)
  yields ``monitor`` events and firing counters.

Causal stamping
---------------

The recorder maintains one **vector clock per robot**, advanced at
every Look/Compute/Move (via the simulator's per-robot phase hook) and
at every bit-lifecycle emission.  Each bit event carries three stamp
attributes — ``by`` (the robot the event happened at), ``vc`` (that
robot's vector clock, as sorted ``[robot, count]`` pairs) and ``wall``
(the engine's continuous clock where one exists, else the instant) —
plus ``seq`` so :mod:`repro.obs.causal` can rebuild the happens-before
DAG without re-pairing by order.  Clock merges follow the physical
causality of the model: a receipt/overhear merges the sender's clock
as of its last visible encoding movement, and a synthesized ack merges
the receiver's clock as of the acknowledged receipt.  All stamps are
deterministic (they derive from simulation state, never from the host
clock), so two recordings of the same seeded run still diff clean.

A recorder can also **tee** its event stream into live sinks
(:meth:`ObsRecorder.add_sink`, typically a
:class:`~repro.obs.stream.StreamingSink`) — the telemetry tap behind
``python -m repro.obs watch``.

Everything is opt-in and bit-transparent: with no recorder attached,
every hook is None and the simulation takes the exact same code path;
with one attached, the recorder only *reads*.  The module-level
dispatch counter exists so tests can assert the disabled path really
dispatches nothing.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.geometry.vec import Vec2
from repro.model.protocol import BitEvent, Protocol
from repro.model.trace import TraceStep
from repro.obs.events import (
    BIT_ACK,
    BIT_ENCODE_STARTED,
    BIT_MOVED,
    BIT_OVERHEARD,
    BIT_RECEIPT,
    DISPLACEMENT,
    MONITOR,
    PHASE,
    SCHEDULE,
    STEP,
    Event,
)
from repro.obs.registry import MetricsRegistry

__all__ = ["ObsRecorder", "dispatch_count", "LATENCY_BUCKETS"]

#: bucket bounds (in instants) of the end-to-end bit-latency histogram.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: process-wide count of obs hook dispatches; stays frozen while no
#: recorder is attached and no request tracer is wired in (the
#: zero-overhead-when-disabled witness; :mod:`repro.obs.live` bumps it
#: too).
_dispatches = 0


def dispatch_count() -> int:
    """How many obs dispatches (recorder hooks, tracer calls) happened so far."""
    return _dispatches


def _bump() -> None:
    global _dispatches
    _dispatches += 1


def _protocol_chain(protocol: Protocol) -> List[Protocol]:
    """A protocol plus its wrapped ``inner`` protocols (flocking)."""
    chain: List[Protocol] = []
    seen = set()
    current: Optional[Protocol] = protocol
    while isinstance(current, Protocol) and id(current) not in seen:
        chain.append(current)
        seen.add(id(current))
        current = getattr(current, "inner", None)
    return chain


class ObsRecorder:
    """Record one simulator run as events + metrics.

    Args:
        clock: monotonic clock for the phase profile; defaults to
            :func:`time.perf_counter`.  Tests inject a deterministic
            fake.  Pass ``timing=False`` to skip phase profiling
            entirely (no phase hook installed).
        registry: metrics registry to write into; a fresh private one
            is created when omitted.
        meta: free-form run metadata (protocol, scheduler, seed, ...)
            embedded in the export header.  ``protocol`` and
            ``scheduler`` become the labels of every metric series.
        timing: whether to install the phase hook (default True).

    Usage::

        recorder = ObsRecorder(meta={"protocol": "sync_two"})
        recorder.attach(sim)
        ... run ...
        recorder.detach(sim)
        run = recorder.to_run()
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
        meta: Optional[Dict[str, object]] = None,
        timing: bool = True,
    ) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else _time.perf_counter
        self.registry = registry if registry is not None else MetricsRegistry()
        self.meta: Dict[str, object] = dict(meta or {})
        self.events: List[Event] = []
        self._timing = timing
        self._sim = None
        self._labels: Dict[str, object] = {}
        self._open_phase: Optional[Tuple[str, int, float]] = None
        self._previous_flag_hook: Optional[Callable[[str, int, str], None]] = None
        #: last encode-started (seq, bit) per flow, for ack synthesis
        self._flow_seq: Dict[Tuple[int, int], int] = {}
        self._flow_last_bit: Dict[Tuple[int, int], int] = {}
        # -- causal stamping state --------------------------------------
        #: per-robot sparse vector clocks (robot -> component counts)
        self._vclocks: Dict[int, Dict[int, int]] = {}
        #: wall time of each robot's most recent Look (per-robot hook)
        self._last_look_wall: Dict[int, float] = {}
        #: per flow: the last / previous bit-moved (time, vc) snapshots —
        #: a decode merges the last snapshot strictly before its instant
        self._flow_moved_vc: Dict[Tuple[int, int], Tuple[int, List[List[int]]]] = {}
        self._flow_moved_prev: Dict[Tuple[int, int], Tuple[int, List[List[int]]]] = {}
        #: receipt clock snapshots per (src, dst, seq), consumed by acks
        self._flow_receipt_vc: Dict[Tuple[int, int, int], List[List[int]]] = {}
        self._flow_receipt_count: Dict[Tuple[int, int], int] = {}
        self._flow_overheard_count: Dict[Tuple[int, int, int], int] = {}
        #: encode instant per flow, for the end-to-end latency histogram
        self._flow_encode_time: Dict[Tuple[int, int], int] = {}
        #: engine label of the attached simulator ("rounds" / "events")
        self._engine: str = "rounds"
        self._robot_hook_installed = False
        #: live sinks the event stream is teed into (the telemetry tap)
        self._streams: List[object] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim) -> "ObsRecorder":
        """Subscribe to every stream of ``sim``; returns self.

        Also installs the process-wide monitor-firing hook (restored
        on :meth:`detach`), so invariant monitors attached to the same
        run land on the event timeline.
        """
        from repro.verify import monitors as _monitors

        if self._sim is not None:
            raise ObservabilityError("recorder is already attached to a simulator")
        self._sim = sim
        self.meta.setdefault("count", sim.count)
        self.meta.setdefault(
            "initial", [[p.x, p.y] for p in sim.trace.initial_positions]
        )
        self._engine = "events" if hasattr(sim, "delay_model") else "rounds"
        self.meta.setdefault("engine", self._engine)
        labels = {}
        for key in ("protocol", "scheduler"):
            if key in self.meta:
                labels[key] = self.meta[key]
        self._labels = labels
        sim.add_step_listener(self._on_step)
        sim.add_fault_listener(self._on_fault)
        if self._timing:
            sim.set_phase_hook(self._on_phase)
        set_robot_hook = getattr(sim, "set_robot_phase_hook", None)
        if set_robot_hook is not None:
            set_robot_hook(self._on_robot_phase)
            self._robot_hook_installed = True
        for robot in sim.robots:
            for protocol in _protocol_chain(robot.protocol):
                protocol._obs_sink = self
        self._previous_flag_hook = _monitors.set_flag_hook(self._on_monitor)
        return self

    def detach(self, sim) -> None:
        """Undo :meth:`attach`; safe to call exactly once."""
        from repro.verify import monitors as _monitors

        if self._sim is not sim:
            raise ObservabilityError("recorder is not attached to this simulator")
        sim.remove_step_listener(self._on_step)
        sim.remove_fault_listener(self._on_fault)
        if self._timing:
            sim.set_phase_hook(None)
        if self._robot_hook_installed:
            sim.set_robot_phase_hook(None)
            self._robot_hook_installed = False
        for robot in sim.robots:
            for protocol in _protocol_chain(robot.protocol):
                if protocol._obs_sink is self:
                    protocol._obs_sink = None
        _monitors.set_flag_hook(self._previous_flag_hook)
        self._previous_flag_hook = None
        self._absorb_perf(sim)
        self._sim = None

    def _absorb_perf(self, sim) -> None:
        """Fold the legacy perf counter blocks into the registry."""
        self.registry.absorb(
            {f"perf_{name}": value for name, value in sim.stats.as_dict().items()},
            **self._labels,
        )
        try:
            from repro.perf.memo import shared_sec_stats

            self.registry.absorb(
                {f"shared_sec_{k}": v for k, v in shared_sec_stats().items()},
                **self._labels,
            )
        except Exception:  # pragma: no cover - memo layer is optional here
            pass

    # ------------------------------------------------------------------
    # Live sinks (the streaming telemetry tap)
    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Tee every subsequently emitted event into ``sink``.

        A sink only needs an ``accept(event)`` method;
        :class:`~repro.obs.stream.StreamingSink` is the bounded-queue
        implementation the live watcher drains.  Sinks only *read* the
        stream — the recording itself is unaffected.
        """
        self._streams.append(sink)

    def remove_sink(self, sink) -> None:
        """Stop teeing into a previously added sink."""
        self._streams.remove(sink)

    # ------------------------------------------------------------------
    # Vector clocks
    # ------------------------------------------------------------------
    def _wall(self) -> float:
        """The engine's continuous clock, or the instant as a float."""
        sim = self._sim
        if sim is None:  # pragma: no cover - sinks only fire attached
            return -1.0
        clock = getattr(sim, "clock", None)
        return float(clock) if clock is not None else float(sim.time)

    def _tick(self, robot: int) -> List[List[int]]:
        """Advance ``robot``'s own component; returns a fresh snapshot."""
        clock = self._vclocks.get(robot)
        if clock is None:
            clock = self._vclocks[robot] = {}
        clock[robot] = clock.get(robot, 0) + 1
        return [[r, clock[r]] for r in sorted(clock)]

    def _merge(self, robot: int, snapshot: Optional[List[List[int]]]) -> None:
        """Fold a received clock snapshot into ``robot``'s clock."""
        if not snapshot:
            return
        clock = self._vclocks.setdefault(robot, {})
        for r, c in snapshot:
            if c > clock.get(r, 0):
                clock[r] = c

    def _moved_snapshot_before(
        self, flow: Tuple[int, int], time: int
    ) -> Optional[List[List[int]]]:
        """The sender's clock at its last move strictly before ``time``.

        A decode at instant ``t`` can only have seen movements applied
        at earlier instants, so a same-instant move (not yet applied
        when the observer Looked) must not leak into the merge.
        """
        last = self._flow_moved_vc.get(flow)
        if last is not None and last[0] < time:
            return last[1]
        prev = self._flow_moved_prev.get(flow)
        if prev is not None and prev[0] < time:
            return prev[1]
        return None

    def _on_robot_phase(self, phase: str, robot: int, time: int) -> None:
        _bump()
        clock = self._vclocks.get(robot)
        if clock is None:
            clock = self._vclocks[robot] = {}
        clock[robot] = clock.get(robot, 0) + 1
        if phase == "look":
            self._last_look_wall[robot] = self._wall()

    # ------------------------------------------------------------------
    # Stream callbacks
    # ------------------------------------------------------------------
    def _emit(self, event: Event) -> None:
        _bump()
        self.events.append(event)
        for sink in self._streams:
            sink.accept(event)

    def _on_step(self, sim, step: TraceStep) -> None:
        active = sorted(step.active)
        self._emit(
            Event(
                SCHEDULE,
                step.time,
                {"active": active, "count": sim.count},
            )
        )
        self._emit(
            Event(
                STEP,
                step.time,
                {
                    "active": active,
                    "positions": [[p.x, p.y] for p in step.positions],
                    "epoch": sim.epoch,
                },
            )
        )
        self.registry.counter("sim_steps_total", **self._labels).inc()
        self.registry.counter("sim_activations_total", **self._labels).inc(len(active))
        self.registry.gauge("sim_epoch", **self._labels).set(sim.epoch)

    def _on_fault(self, sim, index: int, old: Vec2, new: Vec2) -> None:
        self._emit(
            Event(
                DISPLACEMENT,
                sim.time,
                {"robot": index, "from": [old.x, old.y], "to": [new.x, new.y]},
            )
        )
        self.registry.counter("faults_displacements_total", **self._labels).inc()

    def _on_phase(self, phase: str, time: int) -> None:
        now = self.clock()
        open_phase = self._open_phase
        if open_phase is not None:
            name, start_time, started = open_phase
            seconds = now - started
            self._emit(
                Event(PHASE, start_time, {"phase": name, "seconds": seconds})
            )
            self.registry.histogram(
                "sim_phase_seconds", phase=name, **self._labels
            ).observe(seconds)
        self._open_phase = None if phase == "end" else (phase, time, now)

    def _on_monitor(self, invariant: str, time: int, message: str) -> None:
        self._emit(Event(MONITOR, time, {"invariant": invariant, "message": message}))
        self.registry.counter(
            "verify_monitor_firings_total", invariant=invariant, **self._labels
        ).inc()
        previous = self._previous_flag_hook
        if previous is not None:  # pragma: no cover - hook chaining
            previous(invariant, time, message)

    # ------------------------------------------------------------------
    # Bit-lifecycle sink (called by the Protocol base class)
    # ------------------------------------------------------------------
    def _latency_histogram(self):
        """The per-flow end-to-end bit-latency histogram (in instants)."""
        return self.registry.histogram(
            "bit_latency_instants",
            buckets=LATENCY_BUCKETS,
            engine=self._engine,
            **self._labels,
        )

    def bit_encode_started(self, src: int, dst: int, bit: int, time: int) -> None:
        """A sender popped a bit off its queue and began encoding it.

        Also synthesizes the previous bit's ``bit-ack`` event on the
        same flow: a protocol only advances once its ack condition
        (Lemma 4.1 or the synchronous rhythm) was consumed.  The ack
        merges the receiver's clock as of the acknowledged receipt —
        making receipt→ack a happens-before edge — and feeds the
        end-to-end ``bit_latency_instants`` histogram.
        """
        flow = (src, dst)
        seq = self._flow_seq.get(flow, 0)
        wall = self._wall()
        if seq > 0:
            # The sender only advances once the previous bit's leg is
            # complete — the implicit acknowledgement was consumed.
            self._merge(src, self._flow_receipt_vc.pop((src, dst, seq - 1), None))
            self._emit(
                Event(
                    BIT_ACK,
                    time,
                    {
                        "src": src,
                        "dst": dst,
                        "seq": seq - 1,
                        "bit": self._flow_last_bit.get(flow),
                        "by": src,
                        "vc": self._tick(src),
                        "wall": wall,
                    },
                )
            )
            self.registry.counter(
                "bits_total", phase="ack", **self._labels
            ).inc()
            encode_time = self._flow_encode_time.get(flow)
            if encode_time is not None:
                self._latency_histogram().observe(float(time - encode_time))
        self._flow_seq[flow] = seq + 1
        self._flow_last_bit[flow] = bit
        self._flow_encode_time[flow] = time
        self._emit(
            Event(
                BIT_ENCODE_STARTED,
                time,
                {
                    "src": src,
                    "dst": dst,
                    "bit": bit,
                    "seq": seq,
                    "by": src,
                    "vc": self._tick(src),
                    "wall": wall,
                },
            )
        )
        self.registry.counter(
            "bits_total", phase="encode-started", **self._labels
        ).inc()

    def bit_moved(self, src: int, dst: int, bit: int, time: int, target: Vec2) -> None:
        """The sender's encoding movement was computed (the excursion)."""
        flow = (src, dst)
        vc = self._tick(src)
        last = self._flow_moved_vc.get(flow)
        if last is not None:
            self._flow_moved_prev[flow] = last
        self._flow_moved_vc[flow] = (time, vc)
        self._emit(
            Event(
                BIT_MOVED,
                time,
                {
                    "src": src,
                    "dst": dst,
                    "bit": bit,
                    "seq": self._flow_seq.get(flow, 1) - 1,
                    "target": [target.x, target.y],
                    "by": src,
                    "vc": vc,
                    "wall": self._wall(),
                },
            )
        )
        self.registry.counter("bits_total", phase="moved", **self._labels).inc()

    def bit_receipt(self, observer: int, event: BitEvent) -> None:
        """The addressee decoded a bit (it entered ``received``)."""
        flow = (event.src, event.dst)
        self._merge(observer, self._moved_snapshot_before(flow, event.time))
        vc = self._tick(observer)
        seq = self._flow_receipt_count.get(flow, 0)
        self._flow_receipt_count[flow] = seq + 1
        self._flow_receipt_vc[(event.src, event.dst, seq)] = vc
        attrs = {
            "src": event.src,
            "dst": event.dst,
            "bit": event.bit,
            "seq": seq,
            "by": observer,
            "vc": vc,
            "wall": self._wall(),
        }
        look_wall = self._last_look_wall.get(observer)
        if look_wall is not None:
            attrs["look_wall"] = look_wall
        self._emit(Event(BIT_RECEIPT, event.time, attrs))
        self.registry.counter("bits_total", phase="receipt", **self._labels).inc()

    def bit_overheard(self, observer: int, event: BitEvent) -> None:
        """A third party decoded a bit addressed to someone else."""
        flow = (event.src, event.dst)
        self._merge(observer, self._moved_snapshot_before(flow, event.time))
        vc = self._tick(observer)
        key = (event.src, event.dst, observer)
        seq = self._flow_overheard_count.get(key, 0)
        self._flow_overheard_count[key] = seq + 1
        attrs = {
            "src": event.src,
            "dst": event.dst,
            "bit": event.bit,
            "seq": seq,
            "by": observer,
            "vc": vc,
            "wall": self._wall(),
        }
        look_wall = self._last_look_wall.get(observer)
        if look_wall is not None:
            attrs["look_wall"] = look_wall
        self._emit(Event(BIT_OVERHEARD, event.time, attrs))
        self.registry.counter("bits_total", phase="overheard", **self._labels).inc()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def to_run(self):
        """Freeze the recording into an exportable ObsRun."""
        from repro.obs.export import ObsRun

        if self._sim is not None:
            # Snapshot live perf counters without requiring detach.
            self._absorb_perf(self._sim)
        return ObsRun(
            meta=dict(self.meta),
            events=list(self.events),
            metrics=self.registry.collect(),
        )
