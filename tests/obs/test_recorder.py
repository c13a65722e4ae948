"""The run recorder: lifecycle, every stream, injected clock."""

from __future__ import annotations

import itertools

import pytest

from repro.apps.harness import SwarmHarness
from repro.errors import ObservabilityError
from repro.geometry.vec import Vec2
from repro.obs.events import (
    BIT_ACK,
    BIT_ENCODE_STARTED,
    BIT_MOVED,
    BIT_RECEIPT,
    DISPLACEMENT,
    MONITOR,
    PHASE,
    SCHEDULE,
    STEP,
)
from repro.obs.recorder import ObsRecorder
from repro.protocols.sync_two import SyncTwoProtocol
from repro.verify import monitors as monitors_module
from repro.verify.monitors import InvariantMonitor


def _pair_harness() -> SwarmHarness:
    return SwarmHarness(
        [Vec2(0.0, 0.0), Vec2(10.0, 0.0)],
        protocol_factory=lambda: SyncTwoProtocol(),
        identified=False,
        sigma=6.0,
    )


def _recorded_pair(steps: int = 12, **recorder_kwargs):
    harness = _pair_harness()
    recorder = ObsRecorder(
        meta={"protocol": "sync_two", "scheduler": "synchronous"},
        **recorder_kwargs,
    )
    recorder.attach(harness.simulator)
    harness.simulator.protocol_of(0).send_bits(1, [1, 0, 1])
    harness.run(steps)
    recorder.detach(harness.simulator)
    return harness, recorder


class TestLifecycle:
    def test_double_attach_is_an_error(self):
        harness = _pair_harness()
        recorder = ObsRecorder()
        recorder.attach(harness.simulator)
        with pytest.raises(ObservabilityError):
            recorder.attach(harness.simulator)
        recorder.detach(harness.simulator)

    def test_detach_from_the_wrong_simulator_is_an_error(self):
        a, b = _pair_harness(), _pair_harness()
        recorder = ObsRecorder()
        recorder.attach(a.simulator)
        with pytest.raises(ObservabilityError):
            recorder.detach(b.simulator)
        recorder.detach(a.simulator)

    def test_detach_restores_the_monitor_hook(self):
        sentinel_calls = []
        previous = monitors_module.set_flag_hook(
            lambda *args: sentinel_calls.append(args)
        )
        try:
            harness = _pair_harness()
            recorder = ObsRecorder()
            recorder.attach(harness.simulator)
            recorder.detach(harness.simulator)
            restored = monitors_module.set_flag_hook(None)
            assert restored is not None and restored is not recorder._on_monitor
        finally:
            monitors_module.set_flag_hook(previous)

    def test_detach_clears_protocol_sinks(self):
        harness = _pair_harness()
        recorder = ObsRecorder()
        recorder.attach(harness.simulator)
        recorder.detach(harness.simulator)
        for i in range(harness.simulator.count):
            assert harness.simulator.protocol_of(i)._obs_sink is None


class TestStreams:
    def test_step_and_schedule_events_per_instant(self):
        _, recorder = _recorded_pair(steps=6)
        run = recorder.to_run()
        assert len(run.of_kind(STEP)) == 6
        assert len(run.of_kind(SCHEDULE)) == 6
        assert run.total_instants == 6
        step0 = run.of_kind(STEP)[0]
        assert step0.get("active") == [0, 1]
        assert len(step0.get("positions")) == 2

    def test_bit_lifecycle_events_cover_the_payload(self):
        _, recorder = _recorded_pair(steps=12)
        run = recorder.to_run()
        assert len(run.of_kind(BIT_ENCODE_STARTED)) == 3
        assert len(run.of_kind(BIT_MOVED)) == 3
        assert len(run.of_kind(BIT_RECEIPT)) == 3
        # the sender advanced past bits 0 and 1; bit 2's ack has no
        # successor pop to witness it
        assert len(run.of_kind(BIT_ACK)) == 2
        bits = [e.get("bit") for e in run.of_kind(BIT_ENCODE_STARTED)]
        assert bits == [1, 0, 1]

    def test_metrics_count_what_the_events_show(self):
        _, recorder = _recorded_pair(steps=6)
        labels = {"protocol": "sync_two", "scheduler": "synchronous"}
        assert recorder.registry.counter("sim_steps_total", **labels).value == 6
        assert (
            recorder.registry.counter("sim_activations_total", **labels).value == 12
        )

    def test_displacement_fault_is_recorded(self):
        harness = _pair_harness()
        recorder = ObsRecorder().attach(harness.simulator)
        harness.run(2)
        # displace only; further stepping would (correctly) confuse the
        # protocol's decoder — that's the fault model, not the recorder
        harness.simulator.displace(1, Vec2(3.0, 4.0))
        recorder.detach(harness.simulator)
        faults = recorder.to_run().of_kind(DISPLACEMENT)
        assert len(faults) == 1
        assert faults[0].get("robot") == 1
        assert faults[0].get("to") == [3.0, 4.0]

    def test_monitor_firing_lands_on_the_timeline(self):
        class AlwaysFires(InvariantMonitor):
            """Test double: flags once on the first step."""

            name = "always-fires"

            def on_step(self, sim, step):
                if step.time == 0:
                    self._flag(step.time, "deliberate")

        harness = _pair_harness()
        recorder = ObsRecorder(
            meta={"protocol": "sync_two", "scheduler": "synchronous"}
        )
        recorder.attach(harness.simulator)
        monitor = AlwaysFires()
        harness.simulator.add_step_listener(monitor.on_step)
        harness.run(2)
        recorder.detach(harness.simulator)
        fired = recorder.to_run().of_kind(MONITOR)
        assert len(fired) == 1
        assert fired[0].get("invariant") == "always-fires"
        assert (
            recorder.registry.counter(
                "verify_monitor_firings_total",
                invariant="always-fires",
                protocol="sync_two",
                scheduler="synchronous",
            ).value
            == 1
        )


class TestInjectedClock:
    def test_phase_profile_is_deterministic_with_a_fake_clock(self):
        ticks = itertools.count(0.0)
        clock = lambda: next(ticks) * 0.5  # noqa: E731 - tiny test stub
        _, recorder = _recorded_pair(steps=3, clock=clock)
        phases = recorder.to_run().of_kind(PHASE)
        # 8 timed phases per instant: schedule/compute/move/record plus
        # one compute.observe + compute.decide pair per active robot
        assert len(phases) == 24
        assert [e.get("phase") for e in phases[:8]] == [
            "schedule", "compute",
            "compute.observe", "compute.decide",
            "compute.observe", "compute.decide",
            "move", "record",
        ]
        # each phase spans exactly one tick of the injected clock
        assert all(e.get("seconds") == pytest.approx(0.5) for e in phases)
        hist = recorder.registry.histogram(
            "sim_phase_seconds",
            phase="move",
            protocol="sync_two",
            scheduler="synchronous",
        )
        assert hist.count == 3
        assert hist.mean == pytest.approx(0.5)

    def test_timing_false_records_no_phases(self):
        _, recorder = _recorded_pair(steps=3, timing=False)
        assert recorder.to_run().of_kind(PHASE) == []


class TestPerfAbsorption:
    def test_detach_folds_perf_counters_into_the_registry(self):
        _, recorder = _recorded_pair(steps=4)
        run = recorder.to_run()
        names = {entry["name"] for entry in run.metrics}
        assert "perf_cache_hits" in names
        assert "perf_hit_rate" in names


class TestBitLatencyAcrossEngines:
    """The recorder's bit-latency histogram is engine-independent.

    The same two synchronous matrix cells are driven on the round
    engine and on the event engine in round-emulation mode; the
    ``bit_latency_instants`` histograms (observed encode -> implicit
    ack, labeled protocol x scheduler x engine) must agree exactly.
    """

    @pytest.fixture(scope="class")
    def series(self):
        from repro.verify.engine import drive
        from repro.verify.scenarios import CELLS, build_run

        out = {}
        for key in (("sync_two", "synchronous"), ("async_n", "synchronous")):
            cell = CELLS[key]
            for engine in ("rounds", "events"):
                recorder = ObsRecorder(
                    meta={"protocol": cell.protocol, "scheduler": cell.scheduler}
                )
                run = build_run(cell, 0, quick=True, engine=engine)
                recorder.attach(run.sim)
                try:
                    drive(run)
                finally:
                    recorder.detach(run.sim)
                for entry in recorder.registry.collect():
                    if entry["name"] == "bit_latency_instants":
                        labels = entry["labels"]
                        out[(labels["protocol"], labels["engine"])] = entry
        return out

    def test_both_engines_record_bit_latency(self, series):
        for protocol in ("sync_two", "async_n"):
            for engine in ("rounds", "events"):
                assert series[(protocol, engine)]["count"] > 0

    def test_engines_agree_on_the_measured_latency(self, series):
        for protocol in ("sync_two", "async_n"):
            rounds = series[(protocol, "rounds")]
            events = series[(protocol, "events")]
            assert rounds["count"] == events["count"]
            assert rounds["sum"] == pytest.approx(events["sum"])
