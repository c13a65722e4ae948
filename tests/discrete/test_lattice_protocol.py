"""Tests for the lattice world and the lattice log_k protocol."""

from __future__ import annotations

import math

import pytest

from repro.discrete.lattice import HexLattice, SquareLattice
from repro.discrete.lattice_protocol import LatticeLogKProtocol
from repro.errors import ModelError, ProtocolError
from repro.events.engine import EventSimulator
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol


ENGINES = pytest.mark.parametrize(
    "engine", [Simulator, EventSimulator], ids=lambda engine: engine.__name__
)


def square_swarm(count: int = 6, k: int = 3, spacing: float = 12.0, engine=Simulator):
    lattice = SquareLattice(pitch=1.0)
    positions = [
        Vec2(spacing * (i % 3), spacing * (i // 3)) for i in range(count)
    ]
    robots = [
        Robot(
            position=p,
            protocol=LatticeLogKProtocol(k=k, lattice=lattice),
            sigma=6.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    return engine(robots, world=lattice), robots, lattice


class TestLatticeWorld:
    @ENGINES
    def test_requires_lattice_starts(self, engine):
        lattice = SquareLattice(pitch=1.0)
        robots = [
            Robot(position=Vec2(0.5, 0.0), protocol=SyncGranularProtocol(), observable_id=0),
            Robot(position=Vec2(5.0, 0.0), protocol=SyncGranularProtocol(), observable_id=1),
        ]
        with pytest.raises(ModelError, match="robot 0 starts at .* not a lattice point"):
            engine(robots, world=lattice)

    @ENGINES
    def test_destinations_snapped(self, engine):
        sim, robots, lattice = square_swarm(engine=engine)
        robots[0].protocol.send_bits(4, [1, 0])
        sim.run(10)
        for t in range(len(sim.trace) + 1):
            for p in sim.trace.positions_at(t):
                assert lattice.is_lattice_point(p)


class TestLatticeLogKProtocol:
    def test_k_bounded_by_lattice(self):
        with pytest.raises(ProtocolError):
            LatticeLogKProtocol(k=4, lattice=SquareLattice())  # needs 5 diameters
        with pytest.raises(ProtocolError):
            LatticeLogKProtocol(k=3, lattice=HexLattice())  # needs 4 diameters

    def test_sec_naming_rejected(self):
        with pytest.raises(ProtocolError):
            LatticeLogKProtocol(k=2, lattice=SquareLattice(), naming="sec")

    def test_square_delivery(self):
        sim, robots, _ = square_swarm(count=6, k=3)
        robots[0].protocol.send_bits(4, [1, 0, 1])
        sim.run(40)
        assert [e.bit for e in robots[4].protocol.received] == [1, 0, 1]

    def test_square_delivery_base_2(self):
        sim, robots, _ = square_swarm(count=6, k=2)
        robots[5].protocol.send_bits(1, [0, 0, 1])
        sim.run(60)
        assert [e.bit for e in robots[1].protocol.received] == [0, 0, 1]

    def test_hex_delivery(self):
        lattice = HexLattice(pitch=1.0)
        raw = [
            Vec2(0.0, 0.0),
            Vec2(12.0, 0.0),
            Vec2(6.0, 6.0 * math.sqrt(3.0)),
            Vec2(18.0, 6.0 * math.sqrt(3.0)),
        ]
        positions = [lattice.snap(p) for p in raw]
        robots = [
            Robot(
                position=p,
                protocol=LatticeLogKProtocol(k=2, lattice=lattice),
                sigma=6.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]
        sim = Simulator(robots, world=lattice)
        robots[1].protocol.send_bits(2, [0, 1])
        sim.run(40)
        assert [e.bit for e in robots[2].protocol.received] == [0, 1]

    def test_coarse_lattice_rejected(self):
        """A pitch comparable to the granular cannot host excursions."""
        lattice = SquareLattice(pitch=8.0)
        positions = [Vec2(0.0, 0.0), Vec2(16.0, 0.0)]
        robots = [
            Robot(
                position=p,
                protocol=LatticeLogKProtocol(k=2, lattice=lattice),
                sigma=10.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]
        with pytest.raises(ProtocolError):
            Simulator(robots, world=lattice)

    def test_all_pairs_chatter_on_lattice(self):
        sim, robots, _ = square_swarm(count=6, k=3)
        for i in range(6):
            for j in range(6):
                if i != j:
                    robots[i].protocol.send_bits(j, [i & 1])
        sim.run(120)
        for j in range(6):
            received = robots[j].protocol.received
            assert len(received) == 5
            assert {(e.src, e.bit) for e in received} == {
                (i, i & 1) for i in range(6) if i != j
            }
        assert sim.trace.min_pairwise_distance() > 0.0


class TestResolutionLimit:
    """The Section 5 scenario the lattice world embodies."""

    def test_full_slicing_refuses_low_resolution(self):
        with pytest.raises(ProtocolError, match="use SyncLogKProtocol"):
            protocol = SyncGranularProtocol(max_directions=8)
            from repro.model.protocol import BindingInfo

            protocol.bind(
                BindingInfo(
                    index=0,
                    count=6,  # needs 12 directions > 8
                    sigma=1.0,
                    initial_positions=tuple(
                        Vec2(float(i), float(i % 2)) for i in range(6)
                    ),
                    observable_ids=tuple(range(6)),
                )
            )

    def test_logk_fits_the_same_resolution(self):
        from repro.protocols.sync_logk import SyncLogKProtocol

        # k=3 -> 8 slice directions: fine at resolution 8, any n.
        SyncLogKProtocol(k=3, max_directions=8)
        with pytest.raises(ProtocolError):
            SyncLogKProtocol(k=4, max_directions=8)

    def test_small_swarm_still_fits(self):
        # 2n = 8 <= 8: a 4-robot swarm works at resolution 8.
        SyncGranularProtocol(max_directions=8)  # constructor ok
        from repro.model.protocol import BindingInfo

        protocol = SyncGranularProtocol(max_directions=8)
        protocol.bind(
            BindingInfo(
                index=0,
                count=4,
                sigma=1.0,
                initial_positions=(
                    Vec2(0, 0),
                    Vec2(10, 0),
                    Vec2(0, 10),
                    Vec2(10, 10),
                ),
                observable_ids=(0, 1, 2, 3),
            )
        )
