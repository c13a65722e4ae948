"""Scalar-vs-batch trace equivalence: the whole protocol zoo.

Seeded property tests: the same swarm built with ``backend="scalar"``
and ``backend="batch"`` must be byte-identical — positions, activation
sets, received and overheard bit streams, activation counts and
configuration epochs — under both the synchronous and the
fair-asynchronous scheduler, for all six protocols.  Granular swarms
run on the :class:`~repro.batch.engine.BatchSimulator` kernel; every
other protocol is outside the kernel's envelope, so
``make_simulator(backend="batch")`` must hand it to the scalar engine.
The ``repro.verify`` differential oracle sweeps the kernel's cells of
the adversary matrix; these tests are its fast, always-on arm.
"""

from __future__ import annotations

import random

import pytest

import repro.batch
from repro.geometry.vec import Vec2
from repro.model.scheduler import FairAsynchronousScheduler, SynchronousScheduler
from repro.model.simulator import Simulator
from repro.protocols.async_n import AsyncNProtocol
from repro.protocols.async_two import AsyncTwoProtocol
from repro.protocols.flocking import FlockingProtocol
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.protocols.sync_logk import SyncLogKProtocol
from repro.protocols.sync_two import SyncTwoProtocol
from tests.batch.conftest import assert_lockstep, requires_numpy, twin_sims

pytestmark = requires_numpy

SCHEDULERS = {
    "sync": SynchronousScheduler,
    "fair_async": lambda: FairAsynchronousScheduler(seed=42),
}


def _batch_backend(robots, scheduler):
    return repro.batch.make_simulator(robots, scheduler, backend="batch")


def _assert_scalar_fallback(batched) -> None:
    assert type(batched) is Simulator
    assert repro.batch.supports(batched.robots) is False


def _pair_positions(rng: random.Random):
    distance = rng.uniform(8.0, 14.0)
    angle = rng.uniform(0.0, 6.28)
    center = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
    return [center, center + Vec2.from_polar(distance, angle)]


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "naming,regime,identified",
    [
        ("identified", "sense_of_direction", True),
        ("sod", "sense_of_direction", False),
        ("sec", "chirality", False),
    ],
)
def test_sync_granular_equivalence(naming, regime, identified, seed, sched):
    scalar, batched, _ = twin_sims(
        seed,
        5,
        lambda: SyncGranularProtocol(naming=naming),
        regime=regime,
        identified=identified,
        scheduler_factory=SCHEDULERS[sched],
    )
    assert batched.mode == "kernel"
    rng = random.Random(seed * 99 + 5)
    for src, dst in ((0, 3), (2, 1)):
        payload = [rng.randrange(2) for _ in range(4)]
        scalar.protocol_of(src).send_bits(dst, payload)
        batched.protocol_of(src).send_bits(dst, payload)
    assert_lockstep(scalar, batched, 60)


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "name,factory",
    [
        ("sync_two", lambda: SyncTwoProtocol()),
        ("async_two", lambda: AsyncTwoProtocol(bounded=True)),
    ],
)
def test_pair_protocol_equivalence(name, factory, seed, sched):
    rng = random.Random(seed)
    positions = _pair_positions(rng)
    sigma = 0.6 * positions[0].distance_to(positions[1])
    scalar, batched, _ = twin_sims(
        seed,
        2,
        factory,
        positions=positions,
        sigma=sigma,
        scheduler_factory=SCHEDULERS[sched],
        batch=_batch_backend,
    )
    _assert_scalar_fallback(batched)
    for sim in (scalar, batched):
        sim.protocol_of(0).send_bits(1, [1, 0, 1])
    assert_lockstep(scalar, batched, 150)


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "name,regime,identified,factory",
    [
        (
            "sync_logk",
            "sense_of_direction",
            True,
            lambda: SyncLogKProtocol(k=2, naming="identified"),
        ),
        ("async_n", "chirality", False, lambda: AsyncNProtocol(naming="sec")),
        (
            "flocking",
            "sense_of_direction",
            True,
            lambda: FlockingProtocol(
                SyncGranularProtocol(naming="identified"),
                direction=Vec2(1.0, 0.0),
                speed_fraction=0.01,
            ),
        ),
    ],
)
def test_swarm_protocol_equivalence(name, regime, identified, factory, seed, sched):
    scalar, batched, _ = twin_sims(
        seed,
        4,
        factory,
        regime=regime,
        identified=identified,
        scheduler_factory=SCHEDULERS[sched],
        batch=_batch_backend,
    )
    _assert_scalar_fallback(batched)
    for sim in (scalar, batched):
        sim.protocol_of(0).send_bits(2, [1, 0])
    assert_lockstep(scalar, batched, 200)


def test_backend_oracle_cells_quick():
    """The packaged differential oracle agrees on the kernel's cells
    and counts every other protocol's cells as skips."""
    from repro.verify.differential import (
        AXES,
        compare,
        run_differential,
        skip_reason,
    )
    from repro.verify.scenarios import CELLS

    result = compare(
        CELLS[("sync_granular", "displacement")], 0, *AXES["backend"], quick=True
    )
    assert result.ok, (result.problems, result.error)

    report = run_differential(
        "backend", ["sync_granular"], ["synchronous"], seeds=range(2), quick=True
    )
    assert report.ok
    assert len(report.results) == 4  # 2 matrix + 2 fair-async comparisons
    variants = {r.variant for r in report.results}
    assert variants == {"matrix", "fair_async"}

    for protocol, adversary in (("sync_two", "synchronous"), ("async_n", "displacement")):
        report = run_differential(
            "backend", [protocol], [adversary], seeds=range(2), quick=True
        )
        reason = skip_reason("backend", CELLS[(protocol, adversary)])
        assert "batch kernel runs only" in reason
        assert report.results == []  # neither arm compares an off-kernel cell
        assert report.skipped == [(protocol, adversary, reason)]
