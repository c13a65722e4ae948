"""Engine-level properties: determinism, heap invariants, fairness.

Everything here runs the real :class:`repro.events.engine.EventSimulator`
— no mocks — and checks the guarantees the module docstring makes:
same seed, same run; one pending event per robot; the continuous
clock never runs backwards; the gap clamp bounds every robot's
inter-Look time.
"""

from __future__ import annotations

import pytest

from repro.errors import EventError
from repro.events.delay import ConstantDelay
from repro.events.distributions import Deterministic, Exponential, Pareto, Uniform
from repro.events.engine import EventSimulator
from repro.events.timing import TimingModel
from repro.model.scheduler import SynchronousScheduler

from tests.events._support import IdleProtocol, MarchProtocol, line_swarm

pytestmark = pytest.mark.events


def _free_timing(**overrides):
    defaults = dict(
        look=Uniform(0.1, 0.6),
        compute=Uniform(0.1, 0.6),
        move=Uniform(0.1, 0.6),
        gap=Exponential(mean=2.0),
        max_gap=10.0,
    )
    defaults.update(overrides)
    return TimingModel.free(**defaults)


def _free_sim(n=6, seed=0, **kwargs):
    kwargs.setdefault("timing", _free_timing())
    return EventSimulator(line_swarm(n, MarchProtocol), None, seed=seed, **kwargs)


class TestDeterminism:
    def test_same_seed_identical_event_log_trace_and_positions(self):
        a = _free_sim(seed=42, record_events=True)
        b = _free_sim(seed=42, record_events=True)
        for _ in range(60):
            a.step()
            b.step()
        assert a.event_log == b.event_log
        assert a.clock == b.clock
        assert list(a.trace.steps) == list(b.trace.steps)
        assert tuple(a.positions) == tuple(b.positions)

    def test_different_seeds_diverge(self):
        a = _free_sim(seed=1, record_events=True)
        b = _free_sim(seed=2, record_events=True)
        for _ in range(30):
            a.step()
            b.step()
        assert a.event_log != b.event_log

    def test_event_log_is_opt_in(self):
        sim = _free_sim()
        with pytest.raises(EventError, match="record_events=True"):
            sim.event_log


class TestHeapInvariants:
    def test_one_pending_event_per_robot_between_steps(self):
        n = 8
        sim = _free_sim(n=n, seed=3)
        assert sim.heap_depth == n  # one first-Look per robot
        for _ in range(80):
            sim.step()
            # Every pop pushes the robot's next phase: the heap always
            # holds exactly one in-flight event per robot at rest.
            assert sim.heap_depth == n
            robots = sorted(event[2] for event in sim.pending_events)
            assert robots == list(range(n))

    def test_pending_events_are_sorted_and_never_in_the_past(self):
        sim = _free_sim(n=5, seed=9)
        for _ in range(60):
            sim.step()
            times = [event[0] for event in sim.pending_events]
            assert times == sorted(times)
            assert times[0] >= sim.clock

    def test_clock_is_monotone_and_trace_times_are_ordinals(self):
        sim = _free_sim(n=4, seed=7)
        last = 0.0
        for i in range(50):
            step = sim.step()
            assert step.time == i  # ordinal step index, not the clock
            assert sim.clock >= last
            last = sim.clock
        assert sim.events_processed > 0

    def test_heavy_tail_event_storm_keeps_the_phase_cycle(self):
        # Pareto phases/gaps with infinite variance: the heap must
        # still serve every robot a strict look->compute->move cycle.
        timing = _free_timing(
            look=Pareto(alpha=1.1, scale=0.3),
            compute=Pareto(alpha=1.1, scale=0.3),
            move=Pareto(alpha=1.1, scale=0.3),
            gap=Pareto(alpha=0.9, scale=1.0),
            max_gap=50.0,
        )
        n = 10
        sim = _free_sim(n=n, seed=17, timing=timing, record_events=True)
        for _ in range(200):
            sim.step()
            assert sim.heap_depth == n
        cycle = ("look", "compute", "move")
        for robot in range(n):
            phases = [p for (_, p, r) in sim.event_log if r == robot]
            assert phases, f"robot {robot} never activated"
            for i, phase in enumerate(phases):
                assert phase == cycle[i % 3]


class TestFairness:
    def test_max_gap_bounds_every_inter_look_interval(self):
        # Unit phases + clamped exponential gaps: consecutive Looks of
        # any robot are at most look+compute+move+max_gap apart.
        timing = TimingModel.free(
            gap=Exponential(mean=5.0),
            max_gap=8.0,
            activate_all_first=False,
        )
        sim = _free_sim(n=5, seed=11, timing=timing, record_events=True)
        for _ in range(300):
            sim.step()
        bound = 3.0 + 8.0 + 1e-9
        looks = {}
        for time, phase, robot in sim.event_log:
            if phase != "look":
                continue
            if robot in looks:
                assert time - looks[robot] <= bound
            else:
                assert time <= 8.0 + 1e-9  # first Look after one gap draw
            looks[robot] = time
        assert len(looks) == 5  # everyone activated


class TestConstructionErrors:
    def test_free_timing_forbids_a_scheduler(self):
        with pytest.raises(EventError, match="free-running timing"):
            EventSimulator(
                line_swarm(3), SynchronousScheduler(), timing=_free_timing()
            )

    def test_timing_and_delay_types_are_validated(self):
        with pytest.raises(EventError, match="timing must be a TimingModel"):
            EventSimulator(line_swarm(3), None, timing="fast")
        with pytest.raises(EventError, match="delay must be a DelayModel"):
            EventSimulator(line_swarm(3), None, delay=1.5)

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_visibility_radius_must_be_positive(self, bad):
        with pytest.raises(EventError, match="visibility_radius"):
            EventSimulator(line_swarm(3), None, visibility_radius=bad)


class TestMetrics:
    def test_registry_wiring_matches_the_event_log(self):
        from repro.obs.history import metrics_from_snapshot
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        sim = _free_sim(n=4, seed=5, registry=registry, record_events=True)
        for _ in range(40):
            sim.step()
        snapshot = metrics_from_snapshot(registry.collect())
        by_phase = {"look": 0, "compute": 0, "move": 0}
        for _, phase, _ in sim.event_log:
            by_phase[phase] += 1
        for phase, count in by_phase.items():
            assert snapshot[f"event_count{{phase={phase}}}"] == count
        assert snapshot["event_heap_depth_max"] >= 4
        # Histograms land as .count/.sum/.mean scalar projections.
        assert snapshot["event_phase_latency{phase=look}.count"] == by_phase["look"]
        assert snapshot["event_activation_gap.count"] > 0

    def test_sparse_swarm_stays_sparse_with_a_bounded_heap(self):
        """The 1%-duty recipe of the ``sparse_n10k`` benchmark, at n=2,000."""
        from benchmarks.bench_event_sparse import sparse_probe

        row = sparse_probe(n=2_000, events=6_000)
        # step() can overshoot the requested events by one move batch
        assert row["events"] >= 6_000
        assert 0.001 < row["duty"] < 0.05
        # Heap depth stays O(n): one pending event per robot (plus the
        # in-flight batch), never an event explosion.
        assert row["heap_depth_max"] <= 2_000 + 10


class TestEngineExposure:
    def test_make_simulator_routes_to_the_event_engine(self):
        from repro.batch import ENGINES, make_simulator

        assert ENGINES == ("rounds", "events")
        sim = make_simulator(
            line_swarm(3), SynchronousScheduler(), engine="events"
        )
        assert isinstance(sim, EventSimulator)
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(line_swarm(3), engine="instant")
        with pytest.raises(ValueError, match="scalar backend"):
            make_simulator(line_swarm(3), engine="events", backend="batch")
        with pytest.raises(ValueError, match="event-engine knobs"):
            make_simulator(
                line_swarm(3), engine="rounds", timing=_free_timing()
            )

    def test_harness_engine_knob_builds_an_event_simulator(self):
        from repro.apps.harness import SwarmHarness
        from repro.geometry.vec import Vec2

        harness = SwarmHarness(
            [Vec2(10.0 * i, 0.0) for i in range(4)],
            MarchProtocol,
            engine="events",
            timing=_free_timing(),
            delay=ConstantDelay(0.5),
        )
        sim = harness.simulator
        assert isinstance(sim, EventSimulator)
        for _ in range(20):
            sim.step()
        assert sim.clock > 0.0
