"""Cache-invalidation semantics of the configuration-epoch layer.

The hard requirement: a cache may never serve stale geometry.  After a
``displace()`` transient fault the epoch must bump, the next derived-
geometry access must recompute (a miss, matching a from-scratch
computation on the new positions), and observation entries for the
displaced robot must be rebuilt.
"""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.geometry.sec import smallest_enclosing_circle
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import BitEvent, Protocol
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.apps.harness import ring_positions


class Still(Protocol):
    """Test protocol: never move."""

    def _decode(self, observation: Observation):
        return []

    def _compute(self, observation: Observation) -> Vec2:
        return observation.self_position


def still_swarm(count: int = 6, caching: bool = True) -> Simulator:
    robots = [
        Robot(position=p, protocol=Still(), sigma=2.0, observable_id=i)
        for i, p in enumerate(ring_positions(count, radius=10.0, jitter=0.05))
    ]
    return Simulator(robots, caching=caching)


class TestEpoch:
    def test_epoch_static_while_nobody_moves(self):
        sim = still_swarm()
        sim.run(5)
        assert sim.epoch == 0

    def test_epoch_bumps_on_displace(self):
        sim = still_swarm()
        before = sim.epoch
        sim.displace(0, Vec2(50.0, 50.0))
        assert sim.epoch == before + 1

    def test_epoch_bumps_on_actual_movement_only(self):
        class GoRight(Protocol):
            def _decode(self, observation):
                return []

            def _compute(self, observation):
                return observation.self_position + Vec2(1.0, 0.0)

        robots = [
            Robot(position=Vec2(float(3 * i), 0.0), protocol=GoRight(), sigma=2.0)
            for i in range(3)
        ]
        sim = Simulator(robots)
        sim.step()
        assert sim.epoch == 1
        sim.step()
        assert sim.epoch == 2


class TestGeometryCache:
    def test_repeated_access_hits(self):
        sim = still_swarm()
        first = sim.geometry.sec()
        hits_before = sim.stats.cache_hits
        second = sim.geometry.sec()
        assert second is first
        assert sim.stats.cache_hits == hits_before + 1

    def test_displace_invalidates_and_recomputes(self):
        sim = still_swarm()
        stale = sim.geometry.sec()
        sim.displace(0, Vec2(80.0, 0.0))
        misses_before = sim.stats.cache_misses
        hits_before = sim.stats.cache_hits
        fresh = sim.geometry.sec()
        # A miss, not a (stale) hit...
        assert sim.stats.cache_misses == misses_before + 1
        assert sim.stats.cache_hits == hits_before
        # ...and the value matches a from-scratch computation on the
        # displaced configuration, not the old circle.
        assert fresh == smallest_enclosing_circle(sim.positions)
        assert fresh != stale
        assert fresh.radius > stale.radius

    def test_labels_and_hull_track_epoch(self):
        sim = still_swarm()
        labels = sim.geometry.labels(0)
        hull = sim.geometry.hull()
        assert sorted(labels.values()) == list(range(sim.count))
        assert not hull.is_empty()
        sim.displace(1, Vec2(70.0, 5.0))
        assert sim.geometry.hull() != hull

    def test_disabled_cache_always_recomputes(self):
        sim = still_swarm(caching=False)
        a = sim.geometry.sec()
        b = sim.geometry.sec()
        assert a == b
        assert a is not b
        assert sim.stats.cache_hits == 0


class TestObservationCache:
    def test_static_run_reuses_observations(self):
        sim = still_swarm()
        sim.run(4)
        assert sim.stats.cache_hits > 0
        assert sim.stats.observations_reused > 0
        # First instant builds everything, later instants reuse.
        assert sim.stats.observations_built == sim.count * sim.count

    def test_displace_rebuilds_only_the_moved_entry(self):
        sim = still_swarm()
        sim.run(2)
        built_before = sim.stats.observations_built
        sim.displace(0, Vec2(55.0, -5.0))
        sim.step()
        # Each of the n observers rebuilds exactly the displaced
        # robot's entry and reuses the other n-1.
        assert sim.stats.observations_built == built_before + sim.count

    def test_observation_contents_track_displacement(self):
        sim = still_swarm()
        sim.run(2)
        sim.displace(0, Vec2(55.0, -5.0))
        observation = sim._observe(1)
        expected = sim.robots[1].frame.to_local(Vec2(55.0, -5.0), sim.positions[1])
        assert observation.position_of(0) == expected

    def test_uncached_mode_reports_no_hits(self):
        sim = still_swarm(caching=False)
        sim.run(4)
        assert sim.stats.cache_hits == 0
        assert sim.stats.observations_reused == 0
        assert sim.stats.observations_built == sim.count * sim.count * 4


class TestVisibilityCache:
    def test_cached_visibility_matches_recompute(self):
        robots = [
            Robot(position=Vec2(6.0 * i, 0.0), protocol=Still(), sigma=2.0)
            for i in range(5)
        ]
        sim = Simulator(robots, visibility_radius=7.0)
        for i in range(sim.count):
            assert sim._visible_from(i) == sim._compute_visible_from(i)
            assert i in sim._visible_from(i)
        # Chain topology: each robot sees only its neighbours.
        assert sim._visible_from(0) == frozenset({0, 1})
        assert sim._visible_from(2) == frozenset({1, 2, 3})


class TestConstructionChecks:
    def test_duplicate_positions_still_rejected(self):
        robots = [
            Robot(position=Vec2(0.0, 0.0), protocol=Still(), sigma=1.0),
            Robot(position=Vec2(1.0, 0.0), protocol=Still(), sigma=1.0),
            Robot(position=Vec2(0.0, 0.0), protocol=Still(), sigma=1.0),
        ]
        with pytest.raises(ModelError, match="robots 0 and 2 share"):
            Simulator(robots)
