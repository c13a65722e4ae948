"""Kernel-mode specifics: eligibility, faults, holds, counters, limits.

The vectorized granular kernel only hosts exact
:class:`~repro.protocols.sync_granular.SyncGranularProtocol` swarms in
its envelope; ``BatchSimulator`` refuses everything else and
``make_simulator`` runs it on the scalar engine.  These tests pin that
selection and the kernel's trickier parity paths (displacement faults,
dilation holds, the overheard cap) plus the batch counters surfaced
through ``repro.obs``.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol
from tests.batch.conftest import assert_lockstep, requires_numpy, twin_sims

pytestmark = requires_numpy


@pytest.mark.parametrize("seed", [0, 3])
def test_displacement_tolerant_parity(seed):
    scalar, batched, positions = twin_sims(
        seed, 5, lambda: SyncGranularProtocol(tolerate_ambiguity=True)
    )
    assert batched.mode == "kernel"
    for sim in (scalar, batched):
        sim.protocol_of(0).send_bits(3, [1, 0, 1])
    center = positions[4]
    displace = {
        4: (4, center + Vec2(0.9, 0.4)),
        11: (4, center + Vec2(-0.2, 0.1)),
    }
    assert_lockstep(scalar, batched, 40, displace=displace)


def test_displacement_intolerant_parity():
    scalar, batched, positions = twin_sims(
        0, 5, lambda: SyncGranularProtocol(tolerate_ambiguity=False)
    )
    for sim in (scalar, batched):
        sim.protocol_of(1).send_bits(2, [1])
    displace = {4: (4, positions[4] + Vec2(0.77, 0.31))}
    assert_lockstep(scalar, batched, 30, displace=displace)


@pytest.mark.parametrize("seed", [0, 5])
def test_dilation_hold_parity(seed):
    scalar, batched, _ = twin_sims(
        seed, 5, lambda: SyncGranularProtocol(dilation=3)
    )
    assert batched.mode == "kernel"
    for sim in (scalar, batched):
        sim.protocol_of(2).send_bits(0, [1, 1, 0])
    assert_lockstep(scalar, batched, 60)


class _Tagged(SyncGranularProtocol):
    """A subclass may override any hook the kernel bypasses."""


def _envelope_breach(kind: str):
    """A fresh swarm that misses the kernel's envelope in one way."""
    from repro.geometry.frames import Frame

    positions = [Vec2(0.0, 0.0), Vec2(9.0, 0.0), Vec2(0.0, 9.0), Vec2(9.0, 9.0)]
    frames = [Frame(scale=1.0 + 0.25 * i) for i in range(len(positions))]
    protocols = [SyncGranularProtocol() for _ in positions]
    if kind == "subclass":
        protocols = [_Tagged() for _ in positions]
    elif kind == "mixed_config":
        protocols[0] = SyncGranularProtocol(dilation=2)
    elif kind == "left_handed":
        frames[2] = Frame(scale=1.5, handedness=-1)
    elif kind == "rotated_frames":
        frames = [Frame(rotation=0.3 * (i + 1)) for i in range(len(positions))]
        protocols = [SyncGranularProtocol(naming="sod") for _ in positions]
    elif kind == "single_robot":
        positions, frames, protocols = positions[:1], frames[:1], protocols[:1]
    return [
        Robot(
            position=p,
            protocol=protocols[i],
            frame=frames[i],
            sigma=2.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]


BREACHES = ("subclass", "mixed_config", "left_handed", "rotated_frames", "single_robot")


@pytest.mark.parametrize("kind", BREACHES)
def test_kernel_refuses_out_of_envelope_swarm(kind):
    from repro.batch.engine import BatchSimulator
    from repro.errors import ModelError

    with pytest.raises(ModelError, match="batch kernel cannot host this swarm"):
        BatchSimulator(_envelope_breach(kind))


@pytest.mark.parametrize("kind", BREACHES)
def test_make_simulator_runs_out_of_envelope_swarm_on_scalar(kind):
    import repro.batch

    assert repro.batch.supports(_envelope_breach(kind)) is False
    if kind == "single_robot":
        # The scalar engine takes the swarm; the protocol refuses to bind.
        with pytest.raises(ProtocolError, match="at least 2 robots"):
            repro.batch.make_simulator(_envelope_breach(kind), backend="batch")
    else:
        sim = repro.batch.make_simulator(_envelope_breach(kind), backend="batch")
        assert type(sim) is Simulator
    with pytest.raises(ValueError, match="cannot host this swarm"):
        repro.batch.make_simulator(_envelope_breach(kind), backend="batch", strict=True)


def test_overheard_cap_raises_beyond_limit():
    from repro.batch.engine import BatchSimulator

    scalar, _, positions = twin_sims(0, 5, SyncGranularProtocol)
    robots = [
        Robot(
            position=p,
            protocol=SyncGranularProtocol(),
            frame=r.frame,
            sigma=r.sigma,
            observable_id=r.observable_id,
        )
        for p, r in zip(positions, scalar.robots)
    ]
    capped = BatchSimulator(robots, overheard_limit=2)
    assert capped.mode == "kernel"
    capped.protocol_of(0).send_bits(3, [1, 0])
    capped.run(20)
    assert capped.protocol_of(3).received  # receipt still works
    with pytest.raises(ProtocolError):
        capped.protocol_of(1).overheard


def test_batch_counters_recorded():
    _, batched, _ = twin_sims(0, 5, SyncGranularProtocol)
    batched.protocol_of(0).send_bits(3, [1, 0, 1])
    batched.run(30)
    registry = batched.stats.registry
    names = {name for name, _, _ in registry.series()}
    assert {
        "batch_array_reallocs",
        "batch_neighbor_passes",
        "batch_sec_fallbacks",
    } <= names
    assert registry.counter("batch_array_reallocs").value > 0
    # the geometry facade's vectorized neighbour pass bumps the counter
    before = registry.counter("batch_neighbor_passes").value
    batched.geometry.granular_radii()
    assert registry.counter("batch_neighbor_passes").value >= before


def test_duplicate_positions_rejected_identically():
    from repro.batch.engine import BatchSimulator
    from repro.errors import ModelError
    from repro.geometry.frames import make_frames

    frames = make_frames(3, "sense_of_direction", seed=0)
    positions = [Vec2(0.0, 0.0), Vec2(5.0, 0.0), Vec2(5.0, 0.0)]

    def robots():
        return [
            Robot(
                position=p,
                protocol=SyncGranularProtocol(),
                frame=frames[i],
                sigma=2.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]

    with pytest.raises(ModelError) as scalar_err:
        Simulator(robots())
    with pytest.raises(ModelError) as batch_err:
        BatchSimulator(robots())
    assert str(scalar_err.value) == str(batch_err.value)
