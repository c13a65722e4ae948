"""Shared helpers for the batch-backend tests.

Most tests in this package need numpy (the ``[batch]`` extra); they
set ``pytestmark = requires_numpy`` so the directory skips cleanly on
a numpy-free interpreter — which is exactly how the default CI test
job runs.  The fallback tests (:mod:`tests.batch.test_fallback`) run
everywhere by construction.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

import pytest

import repro.batch
from repro.geometry.frames import make_frames
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.scheduler import Scheduler, SynchronousScheduler
from repro.model.simulator import Simulator

requires_numpy = pytest.mark.skipif(
    not repro.batch.available(),
    reason="batch backend needs numpy (install the [batch] extra)",
)


def scatter(rng: random.Random, count: int, spread: float = 18.0,
            min_sep: float = 4.0) -> List[Vec2]:
    """Well-separated random positions (rejection sampling)."""
    positions: List[Vec2] = []
    while len(positions) < count:
        p = Vec2(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if all(p.distance_to(q) >= min_sep for q in positions):
            positions.append(p)
    return positions


def twin_sims(
    seed: int,
    count: int,
    protocol_factory: Callable[[], object],
    *,
    regime: str = "sense_of_direction",
    identified: bool = True,
    scheduler_factory: Optional[Callable[[], Scheduler]] = None,
    sigma: float = 12.0,
    positions: Optional[List[Vec2]] = None,
    batch: Optional[Callable] = None,
):
    """Build the same swarm twice: a scalar and a batch simulator.

    Both swarms are constructed from identical, freshly-drawn robots
    (each simulator needs its own protocol instances), so any observable
    difference between the two runs is a backend bug.  ``batch`` builds
    the second simulator from ``(robots, scheduler)``; the default is
    :class:`~repro.batch.engine.BatchSimulator`.
    """
    from repro.batch.engine import BatchSimulator

    if batch is None:
        batch = BatchSimulator
    rng = random.Random(seed)
    pts = positions if positions is not None else scatter(rng, count)
    frames = make_frames(len(pts), regime, seed=seed)

    def robots():
        return [
            Robot(
                position=p,
                protocol=protocol_factory(),
                frame=frames[i],
                sigma=sigma,
                observable_id=i if identified else None,
            )
            for i, p in enumerate(pts)
        ]

    sched = scheduler_factory if scheduler_factory is not None else SynchronousScheduler
    return Simulator(robots(), sched()), batch(robots(), sched()), pts


def assert_lockstep(
    scalar,
    batched,
    steps: int,
    displace: Optional[Dict[int, Tuple[int, Vec2]]] = None,
) -> None:
    """Drive both simulators in lockstep; any divergence fails the test.

    Positions and activation sets are compared per instant; received /
    overheard streams, activation counters and epochs at the end.  A
    step that raises must raise identically (type and message) on both
    backends — that run then counts as passed.
    """
    for t in range(steps):
        if displace and t in displace:
            index, pos = displace[t]
            scalar.displace(index, pos)
            batched.displace(index, pos)
        err_a = err_b = None
        step_a = step_b = None
        try:
            step_a = scalar.step()
        except Exception as exc:  # noqa: BLE001 - parity check
            err_a = exc
        try:
            step_b = batched.step()
        except Exception as exc:  # noqa: BLE001 - parity check
            err_b = exc
        if err_a is not None or err_b is not None:
            assert err_a is not None and err_b is not None, (
                f"asymmetric exception at t={t}: scalar={err_a!r} batch={err_b!r}"
            )
            assert type(err_a) is type(err_b) and str(err_a) == str(err_b), (
                f"exception divergence at t={t}: scalar={err_a!r} batch={err_b!r}"
            )
            return
        assert step_a.active == step_b.active, f"active set diverged at t={t}"
        assert step_a.positions == step_b.positions, (
            f"positions diverged at t={t}: "
            f"{[i for i, (p, q) in enumerate(zip(step_a.positions, step_b.positions)) if p != q]}"
        )
    for i in range(scalar.count):
        pa = scalar.protocol_of(i)
        pb = batched.protocol_of(i)
        assert pa.received == pb.received, f"received stream diverged for robot {i}"
        assert pa.overheard == pb.overheard, f"overheard stream diverged for robot {i}"
        assert pa.activations == pb.activations, f"activations diverged for robot {i}"
    assert scalar.epoch == batched.epoch, "configuration epochs diverged"
    assert tuple(scalar.positions) == tuple(batched.positions)
