"""Deaf, Dumb, and Chatting Robots — a full reproduction.

Movement-signal communication for swarms of mobile robots, after
Dieudonné, Dolev, Petit and Segal, *Deaf, Dumb, and Chatting Robots:
Enabling Distributed Computation and Fault-Tolerance Among Stigmergic
Robots* (PODC 2009 brief announcement / INRIA report inria-00363081).

The package layers bottom-up:

* :mod:`repro.geometry` — plane geometry: Voronoi cells, granulars,
  smallest enclosing circles, local frames.
* :mod:`repro.model` — the semi-synchronous robot model (SSM):
  robots, observations, schedulers, the simulation engine.
* :mod:`repro.naming` — addressing: IDs, sense-of-direction order,
  SEC relative naming, the symmetry obstruction.
* :mod:`repro.coding` — messages <-> bits, multi-symbol coding, the
  few-slice addressing extension.
* :mod:`repro.protocols` — the paper's six protocols + extensions.
* :mod:`repro.channels` / :mod:`repro.faults` — message transport,
  overhearing, wireless failover.
* :mod:`repro.apps` — leader election, token ring, echo, chat.
* :mod:`repro.analysis` — metrics, audits, complexity tables, ASCII
  figure rendering.

Quickstart::

    from repro import SwarmHarness, SyncGranularProtocol, ring_positions

    harness = SwarmHarness(ring_positions(6, jitter=0.05),
                           lambda: SyncGranularProtocol())
    harness.channel(0).send(3, "hello, robot 3")
    harness.pump(lambda h: len(h.channel(3).inbox) >= 1)
    print(harness.channel(3).inbox[0].text())
"""

from repro.errors import (
    AmbiguousDirectionError,
    ChannelDownError,
    ChannelError,
    CodingError,
    DecodingError,
    GeometryError,
    ModelError,
    NamingError,
    ProtocolError,
    ReproError,
    SchedulerError,
)
from repro.geometry import (
    Circle,
    Frame,
    Granular,
    Vec2,
    granular_radius,
    smallest_enclosing_circle,
    voronoi_cell,
    voronoi_diagram,
)
from repro.model import (
    BitEvent,
    FairAsynchronousScheduler,
    Observation,
    Protocol,
    Robot,
    RoundRobinScheduler,
    ScriptedScheduler,
    Simulator,
    SynchronousScheduler,
    Trace,
    TracePolicy,
)
from repro.perf import CachedGeometry, PerfStats, SpatialHashGrid
from repro.naming import (
    common_naming_is_impossible,
    figure3_configuration,
    identified_labels,
    relative_labels,
    rotational_symmetry_order,
    sod_labels,
)
from repro.coding import FrameDecoder, SymbolCoder, decode_message, encode_message
from repro.protocols import (
    AsyncNProtocol,
    AsyncTwoProtocol,
    FlockingProtocol,
    SyncGranularProtocol,
    SyncLogKProtocol,
    SyncTwoProtocol,
    send_to_all,
    send_to_many,
)
from repro.channels import (
    DualChannelStack,
    Message,
    MovementChannel,
    OverhearingMonitor,
)
from repro.faults import SimulatedWireless
from repro.apps import (
    ChatResult,
    EchoResult,
    ElectionResult,
    SwarmHarness,
    TokenRingResult,
    elect_leader,
    ping,
    run_chat,
    run_token_ring,
)
from repro.apps.harness import ring_positions
from repro.analysis import (
    collision_audit,
    silence_audit,
    slice_tradeoff_table,
    svg_configuration,
    svg_trace,
    transmission_stats,
    write_svg,
)
from repro.visibility import (
    FloodRouter,
    LocalGranularProtocol,
    visibility_graph,
    visibility_is_connected,
)
from repro.discrete import (
    HexLattice,
    LatticeLogKProtocol,
    LatticeSimulator,
    SquareLattice,
)
from repro.stabilization import EpochGranularProtocol
from repro.model.looks import SensingNoise, StaleLook

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GeometryError",
    "AmbiguousDirectionError",
    "ModelError",
    "SchedulerError",
    "ProtocolError",
    "DecodingError",
    "NamingError",
    "CodingError",
    "ChannelError",
    "ChannelDownError",
    # geometry
    "Vec2",
    "Frame",
    "Circle",
    "Granular",
    "granular_radius",
    "smallest_enclosing_circle",
    "voronoi_cell",
    "voronoi_diagram",
    # model
    "Robot",
    "Observation",
    "Protocol",
    "BitEvent",
    "Simulator",
    "Trace",
    "TracePolicy",
    "CachedGeometry",
    "PerfStats",
    "SpatialHashGrid",
    "SynchronousScheduler",
    "FairAsynchronousScheduler",
    "RoundRobinScheduler",
    "ScriptedScheduler",
    # naming
    "identified_labels",
    "sod_labels",
    "relative_labels",
    "rotational_symmetry_order",
    "common_naming_is_impossible",
    "figure3_configuration",
    # coding
    "encode_message",
    "decode_message",
    "FrameDecoder",
    "SymbolCoder",
    # protocols
    "SyncTwoProtocol",
    "SyncGranularProtocol",
    "SyncLogKProtocol",
    "AsyncTwoProtocol",
    "AsyncNProtocol",
    "FlockingProtocol",
    "send_to_all",
    "send_to_many",
    # channels & faults
    "Message",
    "MovementChannel",
    "OverhearingMonitor",
    "DualChannelStack",
    "SimulatedWireless",
    # apps
    "SwarmHarness",
    "ring_positions",
    "elect_leader",
    "ElectionResult",
    "run_token_ring",
    "TokenRingResult",
    "ping",
    "EchoResult",
    "run_chat",
    "ChatResult",
    # analysis
    "transmission_stats",
    "silence_audit",
    "collision_audit",
    "slice_tradeoff_table",
    "svg_configuration",
    "svg_trace",
    "write_svg",
    # visibility (Section 5 extension)
    "LocalGranularProtocol",
    "FloodRouter",
    "visibility_graph",
    "visibility_is_connected",
    # discrete worlds (Section 5 extension)
    "SquareLattice",
    "HexLattice",
    "LatticeSimulator",
    "LatticeLogKProtocol",
    # stabilization (Section 5 extension)
    "EpochGranularProtocol",
    # look policies: partial synchrony & sensing noise (Section 5)
    "StaleLook",
    "SensingNoise",
]
