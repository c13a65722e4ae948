"""The live plane: traces, rings, windows, exposition, the dashboard."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.live import (
    RequestTrace,
    RequestTracer,
    TraceRing,
    to_prometheus,
    validate_exposition,
    render_top,
)
from repro.obs.registry import MetricsRegistry


class TestRequestTrace:
    def test_spans_telescope_to_end_to_end(self):
        trace = RequestTrace("r1", "step", app="chat", started=10.0)
        trace.add_span("queue-wait", 10.0, 10.3)
        trace.add_span("execute", 10.3, 10.9)
        trace.add_span("dispatch", 10.9, 11.0)
        trace.ended = 11.0
        assert trace.seconds == pytest.approx(1.0)
        assert trace.coverage() == pytest.approx(1.0)
        assert trace.span_seconds() == pytest.approx(
            {"queue-wait": 0.3, "execute": 0.6, "dispatch": 0.1}
        )

    def test_negative_spans_are_clamped(self):
        trace = RequestTrace("r1", "step", started=0.0)
        trace.add_span("weird", 5.0, 4.0)
        assert trace.spans[0].seconds == 0.0

    def test_json_form_carries_error(self):
        trace = RequestTrace("r9", "step", app="chat", sid="s1", started=0.0)
        trace.ended = 0.5
        trace.error = "ServeError"
        doc = trace.to_json()
        assert doc["trace"] == "r9" and doc["error"] == "ServeError"
        assert doc["sid"] == "s1"


class TestTraceRing:
    def test_drop_oldest_and_counters(self):
        ring = TraceRing(maxlen=2)
        for i in range(5):
            ring.add(RequestTrace(f"r{i}", "step", started=0.0))
        assert len(ring) == 2
        assert ring.added == 5 and ring.dropped == 3
        assert [t.trace_id for t in ring.traces()] == ["r3", "r4"]

    def test_find_returns_newest_match(self):
        ring = TraceRing(maxlen=8)
        first = RequestTrace("dup", "step", started=0.0)
        second = RequestTrace("dup", "step", started=1.0)
        ring.add(first)
        ring.add(second)
        assert ring.find("dup") is second
        assert ring.find("absent") is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ObservabilityError):
            TraceRing(0)


class TestRequestTracer:
    def test_start_finish_feeds_every_surface(self):
        tracer = RequestTracer(window=16)
        trace = tracer.start("step", app="chat", sid="s1")
        trace.add_span("queue-wait", trace.started, trace.started + 0.001)
        tracer.finish(trace)
        errored = tracer.start("step", app="chat", sid="s1")
        tracer.finish(errored, error="ServeError")
        assert len(tracer.ring) == 2
        rows = tracer.telemetry()["requests"]
        assert rows[0]["count"] == 2 and rows[0]["errors"] == 1
        snapshot = {
            (name, labels): inst.snapshot()
            for name, labels, inst in tracer.registry.series()
        }
        ok_key = ("serve_requests_total",
                  (("app", "chat"), ("op", "step"), ("outcome", "ok")))
        err_key = ("serve_requests_total",
                   (("app", "chat"), ("op", "step"), ("outcome", "error")))
        assert snapshot[ok_key]["value"] == 1
        assert snapshot[err_key]["value"] == 1
        # the errored request burned availability budget
        assert tracer.slo.attainment("availability") == pytest.approx(0.5)

    def test_service_minted_ids_are_unique(self):
        tracer = RequestTracer()
        ids = {tracer.start("step").trace_id for _ in range(10)}
        assert len(ids) == 10
        assert all(i.startswith("r") for i in ids)

    def test_caller_supplied_id_wins(self):
        tracer = RequestTracer()
        assert tracer.start("step", trace_id="mine").trace_id == "mine"

    def test_span_percentile(self):
        tracer = RequestTracer()
        trace = tracer.start("step", app="chat")
        trace.add_span("queue-wait", 0.0, 0.25)
        tracer.finish(trace)
        assert tracer.spans.row(("queue-wait", "*"))["p99"] == pytest.approx(0.25)

    def test_telemetry_shape(self):
        tracer = RequestTracer()
        tracer.finish(tracer.start("step", app="chat"))
        frame = tracer.telemetry()
        assert set(frame) == {"requests", "spans", "slos", "ring"}
        assert frame["ring"]["added"] == 1


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", app="chat", outcome="ok").inc(3)
        registry.gauge("queue_depth").set(7)
        hist = registry.histogram("latency_s", buckets=(0.1, 1.0), app="chat")
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        return registry

    def test_renders_and_validates(self):
        text = to_prometheus(self._registry())
        assert validate_exposition(text) > 0
        lines = text.splitlines()
        assert '# TYPE requests_total counter' in lines
        assert 'requests_total{app="chat",outcome="ok"} 3' in lines
        assert "queue_depth 7" in lines

    def test_histogram_ladder_is_cumulative(self):
        text = to_prometheus(self._registry())
        lines = [l for l in text.splitlines() if l.startswith("latency_s")]
        assert 'latency_s_bucket{app="chat",le="0.1"} 1' in lines
        assert 'latency_s_bucket{app="chat",le="1.0"} 2' in lines
        assert 'latency_s_bucket{app="chat",le="+Inf"} 3' in lines
        assert 'latency_s_count{app="chat"} 3' in lines
        assert any(l.startswith('latency_s_sum{app="chat"}') for l in lines)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", what='say "hi"\nplease\\now').inc()
        text = to_prometheus(registry)
        assert validate_exposition(text) == 1
        assert '\\"hi\\"' in text and "\\n" in text

    def test_validator_rejects_garbage(self):
        for bad in (
            "not a metric line at all!",
            'name{unquoted=oops} 1',
            "",  # no samples
        ):
            with pytest.raises(ObservabilityError):
                validate_exposition(bad)

    def test_deterministic_output(self):
        assert to_prometheus(self._registry()) == to_prometheus(self._registry())


class TestRenderTop:
    def test_renders_a_full_frame(self):
        tracer = RequestTracer()
        tracer.finish(tracer.start("step", app="chat"))
        frame = {
            "stats": {"open": 1, "live": 1, "evicted": 0, "queue_depth": 0,
                      "workers": 2, "accepting": True, "created": 1,
                      "closed": 0, "instants": 64, "evictions": 0,
                      "restores": 0, "rejections": 0},
            "health": {"status": "ok"},
            **tracer.telemetry(),
        }
        text = render_top(frame)
        assert "service: OK" in text
        assert "step" in text and "chat" in text
        assert "availability" in text
        assert "trace ring" in text

    def test_renders_the_empty_service(self):
        text = render_top({"stats": {}, "health": {"status": "ok"}})
        assert "no requests in the window yet" in text
