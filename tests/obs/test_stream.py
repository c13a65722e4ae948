"""The live telemetry tap: bounded sink, rolling latencies, watch."""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.obs.events import BIT_ACK, BIT_ENCODE_STARTED, BIT_RECEIPT, STEP, Event
from repro.obs.export import dump_run
from repro.obs.stream import FlowLatencyTracker, StreamingSink, percentile, watch_file
from repro.obs.__main__ import record_demo


def _lines(events) -> str:
    return "".join(json.dumps(e.to_json()) + "\n" for e in events)


def _flight(seq: int, start: int, latency: int):
    """encode/receipt/ack events for one bit on flow 0->1."""
    return [
        Event(BIT_ENCODE_STARTED, start, {"src": 0, "dst": 1, "seq": seq, "bit": 1}),
        Event(BIT_RECEIPT, start + latency - 1, {"src": 0, "dst": 1, "bit": 1}),
        Event(BIT_ACK, start + latency, {"src": 0, "dst": 1, "seq": seq}),
    ]


class TestStreamingSink:
    def test_accept_then_drain_preserves_order(self):
        sink = StreamingSink()
        events = [Event(STEP, t, {}) for t in range(3)]
        for event in events:
            sink.accept(event)
        assert sink.drain() == events
        assert sink.drain() == []

    def test_overflow_drops_the_oldest_and_counts_it(self):
        sink = StreamingSink(maxlen=2)
        for t in range(5):
            sink.accept(Event(STEP, t, {}))
        assert [e.time for e in sink.drain()] == [3, 4]
        assert sink.dropped == 3
        assert sink.accepted == 5

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            StreamingSink(maxlen=0)

    def test_writer_outrunning_reader_surfaces_on_the_registry(self):
        """A consumer falling behind is visible on the metrics endpoint,
        not only on the sink's own ``dropped`` property."""
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        sink = StreamingSink(maxlen=4, registry=registry)
        for t in range(16):  # writer races ahead; nobody drains
            sink.accept(Event(STEP, t, {}))
        assert sink.dropped == 12
        counter = registry.counter("obs_stream_dropped_events")
        assert counter.value == 12
        # the survivors are the newest, in order
        assert [e.time for e in sink.drain()] == [12, 13, 14, 15]
        sink.accept(Event(STEP, 99, {}))  # room again: no new drops
        assert counter.value == 12

    def test_recorder_tees_every_event_into_the_sink(self, tmp_path):
        from repro.obs.recorder import ObsRecorder  # noqa: F401 — assert importable

        sink_events = []

        class Spy(StreamingSink):
            def accept(self, event):
                sink_events.append(event.kind)
                super().accept(event)

        # record_demo with a sink attached via monkey-wiring is covered
        # in test_transparency; here we check the tee sees the same
        # stream the recorder keeps.
        recorder = _attached_demo_recorder(Spy())
        assert sink_events  # the tap saw live traffic
        assert sink_events == [e.kind for e in recorder.events]


def _attached_demo_recorder(sink):
    """Run the 2-robot demo with ``sink`` teed in; returns the recorder."""
    from repro.apps.harness import SwarmHarness
    from repro.geometry.vec import Vec2
    from repro.obs.recorder import ObsRecorder
    from repro.protocols.sync_two import SyncTwoProtocol

    harness = SwarmHarness(
        [Vec2(0.0, 0.0), Vec2(10.0, 0.0)],
        protocol_factory=lambda: SyncTwoProtocol(),
        identified=False,
        sigma=6.0,
    )
    recorder = ObsRecorder(meta={"protocol": "sync_two", "scheduler": "synchronous"})
    recorder.attach(harness.simulator)
    recorder.add_sink(sink)
    harness.simulator.protocol_of(0).send_bits(1, [1, 0, 1])
    harness.run(10)
    recorder.detach(harness.simulator)
    return recorder


class TestFlowLatencyTracker:
    def test_latency_is_encode_to_ack(self):
        tracker = FlowLatencyTracker()
        for event in _flight(0, start=0, latency=4):
            tracker.consume(event)
        (row,) = tracker.snapshot()
        assert row["flow"] == "0->1"
        assert row["sent"] == row["delivered"] == row["acked"] == 1
        assert row["p50"] == 4.0

    def test_percentiles_over_many_flights(self):
        tracker = FlowLatencyTracker()
        clock = 0
        for seq, latency in enumerate([1] * 9 + [100]):
            for event in _flight(seq, start=clock, latency=latency):
                tracker.consume(event)
            clock += latency + 1
        (row,) = tracker.snapshot()
        assert row["p50"] == 1.0
        assert row["p99"] == 100.0

    def test_window_forgets_old_samples(self):
        tracker = FlowLatencyTracker(window=2)
        clock = 0
        for seq, latency in enumerate([100, 1, 1]):
            for event in _flight(seq, start=clock, latency=latency):
                tracker.consume(event)
            clock += latency + 1
        (row,) = tracker.snapshot()
        assert row["p99"] == 1.0  # the 100 fell out of the window

    def test_render_is_a_table_with_a_header(self):
        tracker = FlowLatencyTracker()
        for event in _flight(0, start=0, latency=2):
            tracker.consume(event)
        text = tracker.render()
        assert "flow" in text.splitlines()[0]
        assert "0->1" in text

    def test_empty_tracker_renders_a_placeholder(self):
        assert "no bit-lifecycle events" in FlowLatencyTracker().render()


class TestWatchFile:
    def test_once_reads_the_whole_file_and_returns_event_count(self, tmp_path):
        path = record_demo(str(tmp_path / "demo.jsonl"), steps=10)
        out = io.StringIO()
        consumed = watch_file(path, once=True, out=out)
        assert consumed > 0
        assert "0->1" in out.getvalue()

    def test_gz_paths_imply_a_single_frame(self, tmp_path):
        from repro.obs.export import load_run

        plain = record_demo(str(tmp_path / "demo.jsonl"), steps=10)
        gz = dump_run(load_run(plain), str(tmp_path / "demo.jsonl.gz"))
        out = io.StringIO()
        assert watch_file(gz, out=out) > 0
        assert "0->1" in out.getvalue()

    def test_tail_loop_picks_up_appended_lines(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text("")
        chunks = iter([
            _lines(_flight(0, start=0, latency=2)),
            _lines(_flight(1, start=3, latency=6)),
        ])

        def feed(_interval):
            path.write_text(path.read_text() + next(chunks))

        # pre-seed the first chunk; the fake sleep appends the second
        feed(0)
        out = io.StringIO()
        consumed = watch_file(
            str(path), interval=0.0, iterations=2, out=out, sleep=feed
        )
        assert consumed == 6
        text = out.getvalue()
        assert "watch frame 1" in text and "watch frame 2" in text

    def test_partial_trailing_line_is_buffered_not_crashed(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            _lines(_flight(0, start=0, latency=2)) + '{"kind": "bit-rec'
        )  # torn mid-write
        out = io.StringIO()
        consumed = watch_file(str(path), iterations=1, out=out, sleep=lambda _: None)
        assert consumed == 3  # the torn tail stayed in the buffer


class TestPercentile:
    """The one nearest-rank percentile, against a stated reference."""

    def test_matches_numpy_inverted_cdf(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(7)
        for _ in range(500):
            sample = sorted(rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 300)))
            for q in (0, 1, 25, 50, 90, 99, 100):
                expected = float(numpy.percentile(sample, q, method="inverted_cdf"))
                assert percentile(sample, q) == expected

    def test_empty_sample_is_zero(self):
        assert percentile([], 99) == 0.0
