"""The verification matrix: protocol x adversary cells.

A *cell* pairs one of the eight protocols with one adversarial schedule
and declares which invariants the paper's claims entitle us to check
there.  Cells outside a protocol's stated envelope are **skipped with
a reason** rather than silently dropped — the CLI prints the reason,
so the matrix documents the envelope as much as it checks it.

Scenario builders are fully seeded: the same ``(cell, seed)`` pair
always produces the identical swarm, schedule, payload and fault
plan.  The engine relies on this to run each cell twice (hot-path
caching on and off) and require bit-identical traces — the
``transparency`` invariant.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.discrete.lattice import HexLattice, Lattice, SquareLattice
from repro.discrete.lattice_protocol import LatticeLogKProtocol
from repro.errors import ModelError
from repro.faults.transient import TransientDisplacementFault
from repro.geometry.frames import make_frames
from repro.geometry.vec import Vec2
from repro.model.protocol import Protocol
from repro.model.robot import Robot
from repro.model.scheduler import (
    FairAsynchronousScheduler,
    Scheduler,
    SynchronousScheduler,
)
from repro.model.simulator import Simulator
from repro.protocols.async_n import AsyncNProtocol
from repro.protocols.async_two import AsyncTwoProtocol
from repro.protocols.flocking import FlockingProtocol
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.protocols.sync_logk import SyncLogKProtocol
from repro.protocols.sync_two import SyncTwoProtocol
from repro.verify.adversaries import SawtoothStaleLook
from repro.verify.monitors import (
    CollisionFreedomMonitor,
    InvariantMonitor,
    NoForgedBitsMonitor,
    ReceiptMonitor,
    SchedulerContractMonitor,
    SilenceMonitor,
    StalenessContractMonitor,
    TrafficMap,
    TwoInstantsPerBitMonitor,
)
from repro.verify.schedulers import (
    BoundedUnfairScheduler,
    BurstScheduler,
    CrashScheduler,
)

__all__ = [
    "PROTOCOLS",
    "SCHEDULERS",
    "EVENT_ADVERSARIES",
    "Cell",
    "CELLS",
    "SKIPS",
    "ScenarioRun",
    "build_run",
    "cells_for",
    "matrix_skips",
]

#: Protocol keys, in the paper's order of presentation.  The
#: ``lattice_*`` keys are the Section 5 discrete worlds: the log_k
#: protocol on a square grid and on a hexagonal pavement, run with the
#: engine's ``world=`` lattice snap.
PROTOCOLS: Tuple[str, ...] = (
    "sync_two",
    "sync_granular",
    "sync_logk",
    "async_two",
    "async_n",
    "flocking",
    "lattice_square",
    "lattice_hex",
)

#: Adversary keys: the scheduler zoo plus the non-scheduler adversaries.
#: The ``event_*`` keys are continuous-time adversaries hosted by the
#: free-running event engine (:mod:`repro.events`) — no round
#: scheduler is involved at all.
SCHEDULERS: Tuple[str, ...] = (
    "synchronous",
    "bounded_unfair",
    "burst",
    "crash",
    "worst_stale",
    "displacement",
    "event_heavy_tail",
    "event_delay_spike",
)

#: The adversaries executed on the free-running event engine.
EVENT_ADVERSARIES: Tuple[str, ...] = ("event_heavy_tail", "event_delay_spike")

#: Maximum Look staleness used by every ``worst_stale`` cell.
STALE_MAX_DELAY = 2


@dataclass(frozen=True)
class Cell:
    """One executable protocol x adversary combination.

    Attributes:
        protocol: protocol key (see :data:`PROTOCOLS`).
        scheduler: adversary key (see :data:`SCHEDULERS`).
        invariants: the invariant names checked in this cell; what is
            *not* listed is outside the protocol's envelope under this
            adversary (e.g. no ``receipt`` under schedules the
            protocol does not claim to deliver under).
        max_steps: instant budget for a full run.
        quick_steps: instant budget under ``--quick``.
    """

    protocol: str
    scheduler: str
    invariants: Tuple[str, ...]
    max_steps: int
    quick_steps: int


# Shorthands so the matrix below stays readable.
_C = "collision"
_S = "silence"
_R = "receipt"
_F = "no-forged-bits"
_T2 = "two-per-bit"
_SC = "scheduler"
_ST = "staleness"


def _cell(p: str, s: str, invariants: Sequence[str], steps: int, quick: int) -> Cell:
    return Cell(p, s, tuple(invariants), steps, quick)


#: The executable matrix.  Every cell also gets the engine-level
#: ``transparency`` check (caching on/off A/B) — it is not listed.
CELLS: Dict[Tuple[str, str], Cell] = {
    (c.protocol, c.scheduler): c
    for c in (
        # -- SyncTwo (Section 3.1): a synchronous pair ------------------
        _cell("sync_two", "synchronous", (_C, _S, _R, _F, _T2, _SC), 120, 60),
        _cell("sync_two", "bounded_unfair", (_C, _S, _F, _SC), 250, 120),
        _cell("sync_two", "burst", (_C, _S, _F, _SC), 250, 120),
        _cell("sync_two", "worst_stale", (_C, _S, _F, _ST, _SC), 120, 60),
        # -- SyncGranular (Section 3.2): the full synchronous swarm -----
        _cell("sync_granular", "synchronous", (_C, _S, _R, _F, _T2, _SC), 120, 60),
        _cell("sync_granular", "bounded_unfair", (_C, _S, _F, _SC), 250, 120),
        _cell("sync_granular", "burst", (_C, _S, _F, _SC), 250, 120),
        _cell("sync_granular", "crash", (_C, _S, _R, _F, _T2, _SC), 120, 60),
        _cell("sync_granular", "worst_stale", (_C, _S, _R, _F, _ST, _SC), 240, 120),
        _cell("sync_granular", "displacement", (_C, _S, _R, _F, _SC), 160, 80),
        # -- SyncLogK (Section 3.3): addressed digit blocks -------------
        _cell("sync_logk", "synchronous", (_C, _S, _R, _F, _SC), 160, 80),
        _cell("sync_logk", "crash", (_C, _S, _R, _F, _SC), 160, 80),
        # -- AsyncTwo (Section 4.1/4.2): the asynchronous pair ----------
        _cell("async_two", "synchronous", (_C, _R, _F, _SC), 1200, 400),
        _cell("async_two", "bounded_unfair", (_C, _R, _F, _SC), 2500, 800),
        _cell("async_two", "burst", (_C, _R, _F, _SC), 2500, 800),
        _cell("async_two", "worst_stale", (_C, _R, _F, _ST, _SC), 600, 250),
        _cell("async_two", "event_heavy_tail", (_C, _R, _F), 4000, 1500),
        # Like async_n below: a targeted visibility spike can park the
        # implicit-ack handshake (the ack *is* a movement observation;
        # a victim that cannot see it yet keeps the sender waiting)
        # beyond any fixed budget, so this cell checks *safety only*.
        _cell("async_two", "event_delay_spike", (_C, _F), 1200, 600),
        # -- AsyncN (Section 4.3): n asynchronous robots ----------------
        _cell("async_n", "synchronous", (_C, _R, _F, _SC), 1200, 400),
        _cell("async_n", "bounded_unfair", (_C, _R, _F, _SC), 2500, 800),
        _cell("async_n", "burst", (_C, _R, _F, _SC), 3000, 1000),
        _cell("async_n", "crash", (_C, _F, _SC), 250, 150),
        _cell("async_n", "worst_stale", (_C, _R, _F, _ST, _SC), 600, 250),
        _cell("async_n", "displacement", (_C, _R, _F, _SC), 600, 250),
        _cell("async_n", "event_heavy_tail", (_C, _R, _F), 8000, 2500),
        # Targeted delay spikes can stall the n-robot handshake
        # indefinitely (the victim's looks mix visibility epochs, which
        # the SEC-naming decode does not claim to survive), so this
        # cell checks *safety only*: no collisions, no forged bits —
        # delivery is explicitly not claimed here.
        _cell("async_n", "event_delay_spike", (_C, _F), 1200, 600),
        # -- Flocking (Section 4.4): chatting while moving --------------
        _cell("flocking", "synchronous", (_C, _R, _F, _T2, _SC), 150, 80),
        _cell("flocking", "crash", (_C, _R, _F, _SC), 250, 120),
        _cell("flocking", "displacement", (_C, _F, _SC), 300, 150),
        # -- Section 5 discrete worlds: log_k on a grid / a pavement ----
        _cell("lattice_square", "synchronous", (_C, _S, _R, _F, _SC), 160, 80),
        _cell("lattice_square", "crash", (_C, _S, _R, _F, _SC), 160, 80),
        _cell("lattice_hex", "synchronous", (_C, _S, _R, _F, _SC), 160, 80),
        _cell("lattice_hex", "crash", (_C, _S, _R, _F, _SC), 160, 80),
    )
}

#: Out-of-envelope cells, with the reason they are not run.  The CLI
#: reports these so the matrix documents the paper's assumptions.
SKIPS: Dict[Tuple[str, str], str] = {
    ("sync_two", "crash"): (
        "a two-robot channel cannot lose either endpoint; the paper's "
        "crash discussion (Remark 4.3) starts at n >= 3"
    ),
    ("sync_two", "displacement"): (
        "the side-step decoder has no ambiguity tolerance: a teleported "
        "peer reads as a corrupt symbol by design"
    ),
    ("sync_logk", "bounded_unfair"): (
        "the Section 3.3 address/digit framing assumes full synchrony; "
        "partial activation desynchronizes the digit blocks and the "
        "decoder raises by design"
    ),
    ("sync_logk", "burst"): (
        "the Section 3.3 address/digit framing assumes full synchrony; "
        "exclusive bursts desynchronize the digit blocks"
    ),
    ("sync_logk", "worst_stale"): (
        "the undilated digit framing cannot survive skipped looks; only "
        "the dilated granular protocol claims staleness tolerance"
    ),
    ("sync_logk", "displacement"): (
        "the log-K slice classifier has no ambiguity tolerance; an "
        "out-of-band sighting raises by design"
    ),
    ("async_two", "crash"): (
        "a two-robot channel cannot lose either endpoint; the paper's "
        "crash discussion (Remark 4.3) starts at n >= 3"
    ),
    ("async_two", "displacement"): (
        "with n = 2 either robot is an endpoint of the only flow; "
        "displacing one corrupts the channel frame itself"
    ),
    ("flocking", "bounded_unfair"): (
        "the Section 4.4 drift overlay assumes every robot executes the "
        "common drift schedule at every instant (full synchrony)"
    ),
    ("flocking", "burst"): (
        "the Section 4.4 drift overlay assumes every robot executes the "
        "common drift schedule at every instant (full synchrony)"
    ),
    ("flocking", "worst_stale"): (
        "stale looks break the drift schedule agreement the overlay "
        "de-drifts against; out of the Section 4.4 envelope"
    ),
    ("sync_two", "event_heavy_tail"): (
        "the Section 3 framing assumes round-aligned activations; the "
        "free-running continuous-time engine is outside the synchronous "
        "envelope (the async protocols are its natural hosts)"
    ),
    ("sync_two", "event_delay_spike"): (
        "the Section 3 framing assumes round-aligned activations and "
        "instantaneous visibility; delayed looks are outside the "
        "synchronous envelope"
    ),
    ("sync_granular", "event_heavy_tail"): (
        "the Section 3 framing assumes round-aligned activations; the "
        "free-running continuous-time engine is outside the synchronous "
        "envelope"
    ),
    ("sync_granular", "event_delay_spike"): (
        "the Section 3 framing assumes round-aligned activations and "
        "instantaneous visibility; delayed looks are outside the "
        "synchronous envelope"
    ),
    ("sync_logk", "event_heavy_tail"): (
        "the Section 3.3 address/digit framing assumes full synchrony; "
        "free-running activations desynchronize the digit blocks"
    ),
    ("sync_logk", "event_delay_spike"): (
        "the Section 3.3 address/digit framing assumes full synchrony "
        "and instantaneous visibility"
    ),
    ("flocking", "event_heavy_tail"): (
        "the Section 4.4 drift overlay assumes every robot executes the "
        "common drift schedule at every instant (full synchrony)"
    ),
    ("flocking", "event_delay_spike"): (
        "the Section 4.4 drift overlay assumes every robot executes the "
        "common drift schedule at every instant (full synchrony)"
    ),
}
# The lattice protocols are SyncLogKProtocol subclasses: same envelope.
SKIPS.update({
    (lattice, s): reason
    for (p, s), reason in SKIPS.items()
    if p == "sync_logk"
    for lattice in ("lattice_square", "lattice_hex")
})

# Sanity: the matrix plus the skip list must tile the full grid.
assert not (set(CELLS) & set(SKIPS)), "a cell cannot both run and be skipped"
assert set(CELLS) | set(SKIPS) == {
    (p, s) for p in PROTOCOLS for s in SCHEDULERS
}, "matrix does not tile the protocol x scheduler grid"


@dataclass
class ScenarioRun:
    """One fully-built, ready-to-step verification run.

    The engine drives it: inject faults, step, early-stop on delivery
    (when the cell checks receipt), then hand the monitors their
    ``finish`` pass.
    """

    cell: Cell
    seed: int
    size: int
    sim: Simulator
    monitors: List[InvariantMonitor]
    sent: TrafficMap
    max_steps: int
    #: run at least this many instants before early-stopping (cells
    #: without a receipt claim set it to ``max_steps``: there is no
    #: delivery event to stop on, the budget *is* the experiment).
    min_steps: int
    fault: Optional[TransientDisplacementFault] = None

    @property
    def check_receipt(self) -> bool:
        return _R in self.cell.invariants

    def delivered(self) -> bool:
        """Has every declared flow received its full payload?"""
        for (src, dst), bits in self.sent.items():
            got = sum(1 for e in self.sim.protocol_of(dst).received if e.src == src)
            if got < len(bits):
                return False
        return True


def cells_for(
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> List[Cell]:
    """The executable cells matching a protocol/scheduler filter."""
    ps = tuple(protocols) if protocols else PROTOCOLS
    ss = tuple(schedulers) if schedulers else SCHEDULERS
    for p in ps:
        if p not in PROTOCOLS:
            raise ModelError(f"unknown protocol {p!r} (choose from {PROTOCOLS})")
    for s in ss:
        if s not in SCHEDULERS:
            raise ModelError(f"unknown scheduler {s!r} (choose from {SCHEDULERS})")
    return [CELLS[(p, s)] for p in ps for s in ss if (p, s) in CELLS]


def matrix_skips(
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> List[Tuple[str, str, str]]:
    """The :data:`SKIPS` matching a filter, as ``(protocol, scheduler, reason)``.

    Every sweep (the matrix engine and each oracle) opens its skip list
    with these, so out-of-envelope cells are always counted.
    """
    return [
        (p, s, reason)
        for (p, s), reason in sorted(SKIPS.items())
        if (not protocols or p in protocols) and (not schedulers or s in schedulers)
    ]


# ----------------------------------------------------------------------
# Seeded geometry
# ----------------------------------------------------------------------

def _scatter(rng: random.Random, count: int, spread: float = 18.0,
             min_sep: float = 4.0) -> List[Vec2]:
    """``count`` seeded positions with a minimum pairwise separation."""
    positions: List[Vec2] = []
    attempts = 0
    sep = min_sep
    while len(positions) < count:
        p = Vec2(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if all(p.distance_to(q) >= sep for q in positions):
            positions.append(p)
        attempts += 1
        if attempts > 500 * count:  # pragma: no cover - ample head-room
            sep *= 0.5
            attempts = 0
    return positions


def _pair(rng: random.Random) -> Tuple[List[Vec2], float]:
    """A seeded two-robot placement; returns positions and distance."""
    d = rng.uniform(8.0, 14.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    center = Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
    return [center, center + Vec2.from_polar(d, angle)], d


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

@dataclass
class _Blueprint:
    """Everything a cell build produces before engine assembly."""

    positions: List[Vec2]
    factory: Callable[[], Protocol]
    identified: bool
    frame_regime: str
    sigma: float
    flows: List[Tuple[int, int]]
    payload: List[int]
    world: Optional[Lattice] = None


def _payload(rng: random.Random, sync: bool, quick: bool) -> List[int]:
    length = 2 if quick else (rng.randint(3, 5) if sync else rng.randint(2, 3))
    return [rng.randrange(2) for _ in range(length)]


def _pick_flow(rng: random.Random, count: int) -> Tuple[int, int]:
    src = rng.randrange(count)
    dst = rng.randrange(count - 1)
    if dst >= src:
        dst += 1
    return src, dst


#: The discrete-world protocol keys: their lattice and digit base.
_LATTICE_PROTOCOLS: Dict[str, Tuple[Lattice, int]] = {
    "lattice_square": (SquareLattice(), 3),
    "lattice_hex": (HexLattice(), 2),
}


def _blueprint(cell: Cell, rng: random.Random, quick: bool,
               size_override: Optional[int]) -> _Blueprint:
    p, adv = cell.protocol, cell.scheduler

    if p in ("sync_two", "async_two"):
        positions, _ = _pair(rng)
        sigma = 0.6 * positions[0].distance_to(positions[1])
        src = rng.randrange(2)
        flows = [(src, 1 - src)]
        if p == "sync_two":
            factory: Callable[[], Protocol] = lambda: SyncTwoProtocol()
        else:
            factory = lambda: AsyncTwoProtocol(bounded=True)
        return _Blueprint(positions, factory, False, "sense_of_direction",
                          sigma, flows, _payload(rng, p == "sync_two", quick))

    if p == "sync_granular":
        size = size_override or (4 if quick else rng.randint(4, 7))
        positions = _scatter(rng, size)
        dilation = STALE_MAX_DELAY + 1 if adv == "worst_stale" else 1
        tolerant = adv == "displacement"
        factory = lambda: SyncGranularProtocol(
            naming="identified", dilation=dilation, tolerate_ambiguity=tolerant
        )
        return _Blueprint(positions, factory, True, "sense_of_direction",
                          12.0, [_pick_flow(rng, size)], _payload(rng, True, quick))

    if p == "sync_logk":
        size = size_override or (4 if quick else rng.randint(4, 6))
        positions = _scatter(rng, size)
        factory = lambda: SyncLogKProtocol(k=2, naming="identified")
        return _Blueprint(positions, factory, True, "sense_of_direction",
                          12.0, [_pick_flow(rng, size)], _payload(rng, True, quick))

    if p in _LATTICE_PROTOCOLS:
        lattice, k = _LATTICE_PROTOCOLS[p]
        size = size_override or (4 if quick else rng.randint(4, 6))
        positions = [lattice.snap(q) for q in _scatter(rng, size)]
        factory = lambda: LatticeLogKProtocol(k=k, lattice=lattice)
        # Identity frames: the lattice is a shared world structure.
        return _Blueprint(positions, factory, True, "identical",
                          12.0, [_pick_flow(rng, size)], _payload(rng, True, quick),
                          world=lattice)

    if p == "async_n":
        size = size_override or (4 if quick else rng.randint(4, 5))
        positions = _scatter(rng, size)
        tolerant = adv == "displacement"
        factory = lambda: AsyncNProtocol(
            naming="sec", tolerate_ambiguity=tolerant
        )
        return _Blueprint(positions, factory, False, "chirality",
                          12.0, [_pick_flow(rng, size)], _payload(rng, False, quick))

    if p == "flocking":
        size = size_override or (4 if quick else rng.randint(4, 5))
        positions = _scatter(rng, size)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = Vec2(math.cos(angle), math.sin(angle))
        tolerant = adv in ("crash", "displacement")
        factory = lambda: FlockingProtocol(
            SyncGranularProtocol(
                naming="identified", tolerate_ambiguity=tolerant
            ),
            direction=direction,
            speed_fraction=0.01,
        )
        return _Blueprint(positions, factory, True, "sense_of_direction",
                          12.0, [_pick_flow(rng, size)], _payload(rng, True, quick))

    raise ModelError(f"unknown protocol {p!r}")  # pragma: no cover


def _pick_victim(rng: random.Random, count: int,
                 flows: Sequence[Tuple[int, int]]) -> int:
    """A robot that is endpoint of no declared flow."""
    endpoints = {i for flow in flows for i in flow}
    candidates = [i for i in range(count) if i not in endpoints]
    if not candidates:
        raise ModelError("no crash/displacement victim available")
    return rng.choice(candidates)


def build_run(
    cell: Cell,
    seed: int,
    *,
    caching: bool = True,
    quick: bool = False,
    size_override: Optional[int] = None,
    max_steps_override: Optional[int] = None,
    backend: str = "scalar",
    engine: str = "rounds",
    scheduler_factory: Optional[Callable[[], Scheduler]] = None,
) -> ScenarioRun:
    """Materialize one cell at one seed.

    Fully deterministic: the same arguments (except ``caching``, which
    must not matter — that is the transparency invariant) produce the
    identical run.

    ``backend`` selects the simulator implementation (``"scalar"`` or
    ``"batch"``); every RNG draw happens before the simulator is
    constructed, so the two backends see the identical scenario — that
    is what makes :mod:`repro.verify.differential` a differential
    oracle.  ``"batch"`` always builds the
    :class:`~repro.batch.engine.BatchSimulator`, which raises
    :class:`ModelError` for a swarm outside the kernel's envelope: a
    batch run never falls back to the scalar engine unseen.  ``engine`` selects ``"rounds"`` (the classic
    instant-stepped engine) or ``"events"`` (the event engine in
    round-emulation mode: unit phase durations, zero delay) — the
    oracle's other axis.  The ``event_*`` adversary cells are
    *inherently* event-engine runs (free-running timing, delay models)
    and ignore the ``engine`` argument.
    ``scheduler_factory``, when given, replaces the cell's scheduler
    after all seeding draws (the differential oracle uses it to sweep
    the fair-asynchronous scheduler over cells the static matrix pins
    to full synchrony).
    """
    # zlib.crc32, not hash(): string hashing is salted per process and
    # would make the "same seed, same run" reproduction promise a lie.
    cell_tag = zlib.crc32(f"{cell.protocol}/{cell.scheduler}".encode("ascii"))
    rng = random.Random((seed * 1_000_003) ^ cell_tag)
    bp = _blueprint(cell, rng, quick, size_override)
    count = len(bp.positions)
    adv = cell.scheduler

    # -- adversary wiring (all draws below stay on the same rng so the
    #    caching on/off pair sees the identical sequence) --------------
    fairness: Optional[int] = None
    crashed: Optional[set] = None
    crash_time: Optional[int] = None
    fault: Optional[TransientDisplacementFault] = None
    event_timing = None
    event_delay = None
    scheduler: Optional[Scheduler]
    if adv in EVENT_ADVERSARIES:
        from repro.events.delay import TargetedSpikeDelay, ZeroDelay
        from repro.events.distributions import Exponential, Pareto, Uniform
        from repro.events.timing import TimingModel

        # Free-running continuous time: the engine owns the schedule.
        scheduler = None
        if adv == "event_heavy_tail":
            # Phase durations with infinite variance (alpha < 2): any
            # robot can occasionally stall mid-cycle for a long time
            # while the gap clamp keeps every window fair.
            heavy = lambda: Pareto(alpha=1.4, scale=0.3)
            event_timing = TimingModel.free(
                look=heavy(),
                compute=heavy(),
                move=heavy(),
                gap=Exponential(mean=1.0),
                max_gap=8.0,
            )
            event_delay = ZeroDelay()
        else:
            # Benign timing, adversarial visibility: one robot — the
            # declared flow's receiver — suffers recurring delay
            # spikes, so its looks lag far behind the sender's moves.
            victim = bp.flows[0][1]
            event_timing = TimingModel.free(
                look=Uniform(0.5, 1.5),
                compute=Uniform(0.5, 1.5),
                move=Uniform(0.5, 1.5),
                gap=Exponential(mean=1.0),
                max_gap=6.0,
            )
            event_delay = TargetedSpikeDelay(
                victim, spike=10.0, period=40.0, width=8.0
            )
    elif adv == "synchronous" or adv == "worst_stale" or adv == "displacement":
        scheduler = SynchronousScheduler()
        fairness = 1
    elif adv == "bounded_unfair":
        fairness = 4
        scheduler = BoundedUnfairScheduler(
            fairness_bound=fairness, seed=seed * 31 + 7, stickiness=2
        )
    elif adv == "burst":
        burst = 3
        scheduler = BurstScheduler(burst_length=burst, seed=seed * 17 + 3)
        fairness = (count - 1) * burst + 1
    elif adv == "crash":
        crash_time = rng.randint(2, 5)
        victim = _pick_victim(rng, count, bp.flows)
        crashed = {victim}
        if cell.protocol == "async_n":
            inner: Scheduler = FairAsynchronousScheduler(
                fairness_bound=3, activation_probability=0.6, seed=seed * 13 + 5
            )
            fairness = 3
        else:
            inner = SynchronousScheduler()
            fairness = 1
        scheduler = CrashScheduler(inner, crash_time, [victim])
    else:
        raise ModelError(f"unknown adversary {adv!r}")  # pragma: no cover

    if adv == "displacement":
        victim = _pick_victim(rng, count, bp.flows)
        first = rng.randint(2, 8)
        second = first + rng.randint(6, 12)
        fault = TransientDisplacementFault(
            victim, times=(first, second), seed=seed * 7 + 1
        )

    # -- swarm ----------------------------------------------------------
    frames = make_frames(count, bp.frame_regime, seed=seed)  # type: ignore[arg-type]
    robots = [
        Robot(
            position=pos,
            protocol=bp.factory(),
            frame=frames[i],
            sigma=bp.sigma,
            observable_id=i if bp.identified else None,
        )
        for i, pos in enumerate(bp.positions)
    ]
    if scheduler_factory is not None and scheduler is not None:
        scheduler = scheduler_factory()
    if engine not in ("rounds", "events"):
        raise ModelError(f"unknown engine {engine!r} (choose rounds or events)")
    look = SawtoothStaleLook(STALE_MAX_DELAY) if adv == "worst_stale" else None
    if adv in EVENT_ADVERSARIES or engine == "events":
        from repro.events.engine import EventSimulator
        from repro.events.timing import TimingModel

        if backend != "scalar":
            raise ModelError(
                f"the event engine is scalar-only; backend {backend!r} has "
                f"no twin for the {adv} cell on engine={engine!r}"
            )
        # Round emulation (no event_timing) draws no durations, so the
        # seed only matters to the free-running event_* adversaries.
        sim: Simulator = EventSimulator(
            robots,
            scheduler,
            timing=event_timing or TimingModel.round_emulation(),
            delay=event_delay,
            seed=seed * 9_176 + 5,
            caching=caching,
            look=look,
            world=bp.world,
        )
    elif backend == "batch":
        from repro.batch.engine import BatchSimulator

        if look is not None:
            raise ModelError(
                f"the {adv} adversary is a look policy, which the batch "
                "backend does not support"
            )
        sim = BatchSimulator(robots, scheduler, caching=caching)
    elif backend == "scalar":
        sim = Simulator(robots, scheduler, caching=caching, look=look, world=bp.world)
    else:
        raise ModelError(f"unknown backend {backend!r} (choose scalar or batch)")

    # -- traffic --------------------------------------------------------
    sent: TrafficMap = {}
    for src, dst in bp.flows:
        sim.protocol_of(src).send_bits(dst, bp.payload)
        sent[(src, dst)] = list(bp.payload)

    # -- monitors -------------------------------------------------------
    senders = {src for src, _ in bp.flows}
    displaced = {fault.victim} if fault is not None else set()
    monitors: List[InvariantMonitor] = []
    for name in cell.invariants:
        if name == _C:
            monitors.append(CollisionFreedomMonitor())
        elif name == _S:
            monitors.append(SilenceMonitor(senders, displaced))
        elif name == _R:
            monitors.append(ReceiptMonitor(sent))
        elif name == _F:
            monitors.append(NoForgedBitsMonitor(sent))
        elif name == _T2:
            monitors.append(TwoInstantsPerBitMonitor(sent))
        elif name == _SC:
            monitors.append(SchedulerContractMonitor(fairness, crashed, crash_time))
        elif name == _ST:
            monitors.append(StalenessContractMonitor())
        else:  # pragma: no cover - matrix is static
            raise ModelError(f"cell declares unknown invariant {name!r}")

    max_steps = max_steps_override or (cell.quick_steps if quick else cell.max_steps)
    if _R in cell.invariants:
        floors = [0]
        if crash_time is not None:
            floors.append(crash_time + 4)
        if fault is not None:
            floors.append(max(fault.times) + 6)
        min_steps = min(max_steps, max(floors))
    else:
        # No delivery event to stop on: the budget is the experiment.
        min_steps = max_steps

    return ScenarioRun(
        cell=cell,
        seed=seed,
        size=count,
        sim=sim,
        monitors=monitors,
        sent=sent,
        max_steps=max_steps,
        min_steps=min_steps,
        fault=fault,
    )
