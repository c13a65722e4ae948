"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import math
import random
from typing import Callable, List, Optional, Sequence

import pytest

from repro.apps.harness import SwarmHarness, ring_positions
from repro.geometry.vec import Vec2
from repro.model.protocol import Protocol
from repro.model.scheduler import Scheduler


def random_positions(
    count: int,
    seed: int = 0,
    spread: float = 20.0,
    min_separation: float = 1.0,
) -> List[Vec2]:
    """Well-separated random positions (rejection sampling)."""
    rng = random.Random(seed)
    points: List[Vec2] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 100_000:
            raise RuntimeError("could not place points; lower min_separation")
        candidate = Vec2(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if all(candidate.distance_to(p) >= min_separation for p in points):
            points.append(candidate)
    return points


def make_harness(
    count: int,
    factory: Callable[[], Protocol],
    scheduler: Optional[Scheduler] = None,
    identified: bool = True,
    frame_regime: str = "sense_of_direction",
    sigma: float = 5.0,
    radius: float = 10.0,
    frame_seed: int = 0,
) -> SwarmHarness:
    """A ring-layout harness with roomy sigma (test default)."""
    return SwarmHarness(
        ring_positions(count, radius=radius, jitter=0.07),
        protocol_factory=factory,
        scheduler=scheduler,
        identified=identified,
        frame_regime=frame_regime,  # type: ignore[arg-type]
        sigma=sigma,
        frame_seed=frame_seed,
    )


def angles_approximately(a: float, b: float, tol: float = 1e-9) -> bool:
    """Angle equality modulo 2*pi."""
    diff = (a - b) % (2.0 * math.pi)
    return diff <= tol or (2.0 * math.pi - diff) <= tol


@pytest.fixture
def twelve_ring() -> List[Vec2]:
    """The Figure 2 style layout: 12 robots on a slightly irregular ring."""
    return ring_positions(12, radius=10.0, jitter=0.06)


def deliver_all(
    harness: SwarmHarness,
    expectations: Sequence[tuple],
    max_steps: int = 60_000,
) -> bool:
    """Pump until every (receiver, count) expectation is met."""

    def done(h: SwarmHarness) -> bool:
        return all(len(h.channel(r).inbox) >= c for r, c in expectations)

    return harness.pump(done, max_steps=max_steps)


def tracked_per_build(cls, count=1000):
    """GC-tracked objects added per instance by ``count`` builds of ``cls``.

    The builds run on a fresh subclass: CPython 3.11 gives a class's
    instances a separate (tracked) attribute dict once a few of them were
    created before the class's attribute keys were all known, as a
    refused construction does, so the count must not depend on which
    tests ran first.
    """
    fresh = type(cls.__name__, (cls,), {})
    fresh()  # learn the attribute keys and warm any config cache
    gc.collect()
    before = len(gc.get_objects())
    keep = [fresh() for _ in range(count)]
    added = len(gc.get_objects()) - before - 1  # minus the ``keep`` list
    del keep
    return added / count
