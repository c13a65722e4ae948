"""Golden wire format of the request tracer.

``obs top``, the ``/metrics`` scrape and the benchmark all read what
:class:`~repro.obs.live.RequestTracer` emits.  Feeding it traces with
injected start/end times makes both surfaces deterministic, so they
are pinned here byte for byte: the ``telemetry`` payload (as JSON, so
key order and float spelling count) and the Prometheus exposition.
The times are binary fractions, exact in floating point.
"""

from __future__ import annotations

import json

from repro.obs.live import RequestTracer, to_prometheus


def _fed_tracer() -> RequestTracer:
    tracer = RequestTracer(window=16)
    trace = tracer.start("step", app="chat", sid="s1", started=0.0)
    trace.add_span("queue-wait", 0.0, 0.25)
    trace.add_span("execute", 0.25, 0.75)
    trace.add_span("dispatch", 0.75, 1.0)
    tracer.finish(trace, ended=1.0)
    trace = tracer.start("step", app="chat", sid="s1", started=1.0)
    trace.add_span("queue-wait", 1.0, 1.0625)
    trace.add_span("execute", 1.0625, 1.5)
    trace.add_span("reply", 1.5, 2.0)
    tracer.finish(trace, error="ServeError", ended=2.0)
    trace = tracer.start("query", started=3.0)
    trace.add_span("dispatch", 3.0, 3.0078125)
    tracer.finish(trace, ended=3.0078125)
    return tracer


TELEMETRY = """\
{
 "requests": [
  {
   "op": "query",
   "app": "?",
   "count": 1,
   "errors": 0,
   "window": 1,
   "p50": 0.0078125,
   "p90": 0.0078125,
   "p99": 0.0078125
  },
  {
   "op": "step",
   "app": "chat",
   "count": 2,
   "errors": 1,
   "window": 2,
   "p50": 1.0,
   "p90": 1.0,
   "p99": 1.0
  }
 ],
 "spans": [
  {
   "op": "dispatch",
   "app": "*",
   "count": 2,
   "errors": 0,
   "window": 2,
   "p50": 0.0078125,
   "p90": 0.25,
   "p99": 0.25
  },
  {
   "op": "execute",
   "app": "*",
   "count": 2,
   "errors": 0,
   "window": 2,
   "p50": 0.4375,
   "p90": 0.5,
   "p99": 0.5
  },
  {
   "op": "queue-wait",
   "app": "*",
   "count": 2,
   "errors": 0,
   "window": 2,
   "p50": 0.0625,
   "p90": 0.25,
   "p99": 0.25
  },
  {
   "op": "reply",
   "app": "*",
   "count": 1,
   "errors": 0,
   "window": 1,
   "p50": 0.5,
   "p90": 0.5,
   "p99": 0.5
  }
 ],
 "slos": [
  {
   "name": "step-latency",
   "objective": "95% of step <= 250ms",
   "op": "step",
   "window": 2,
   "good": 0,
   "attainment": 0.0,
   "target": 0.95,
   "error_budget": 0.050000000000000044,
   "burn": 19.999999999999982,
   "ok": false
  },
  {
   "name": "availability",
   "objective": "99.9% of all ops succeed",
   "op": "*",
   "window": 3,
   "good": 2,
   "attainment": 0.6666666666666666,
   "target": 0.999,
   "error_budget": 0.0010000000000000009,
   "burn": 333.3333333333331,
   "ok": false
  }
 ],
 "ring": {
  "retained": 3,
  "added": 3,
  "dropped": 0
 }
}
"""

EXPOSITION = """\
# TYPE serve_request_latency_s histogram
serve_request_latency_s_bucket{app="?",le="0.0005",op="query"} 0
serve_request_latency_s_bucket{app="?",le="0.001",op="query"} 0
serve_request_latency_s_bucket{app="?",le="0.0025",op="query"} 0
serve_request_latency_s_bucket{app="?",le="0.005",op="query"} 0
serve_request_latency_s_bucket{app="?",le="0.01",op="query"} 1
serve_request_latency_s_bucket{app="?",le="0.025",op="query"} 1
serve_request_latency_s_bucket{app="?",le="0.05",op="query"} 1
serve_request_latency_s_bucket{app="?",le="0.1",op="query"} 1
serve_request_latency_s_bucket{app="?",le="0.25",op="query"} 1
serve_request_latency_s_bucket{app="?",le="0.5",op="query"} 1
serve_request_latency_s_bucket{app="?",le="1.0",op="query"} 1
serve_request_latency_s_bucket{app="?",le="2.5",op="query"} 1
serve_request_latency_s_bucket{app="?",le="5.0",op="query"} 1
serve_request_latency_s_bucket{app="?",le="+Inf",op="query"} 1
serve_request_latency_s_sum{app="?",op="query"} 0.0078125
serve_request_latency_s_count{app="?",op="query"} 1
serve_request_latency_s_bucket{app="chat",le="0.0005",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.001",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.0025",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.005",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.01",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.025",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.05",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.1",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.25",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="0.5",op="step"} 0
serve_request_latency_s_bucket{app="chat",le="1.0",op="step"} 2
serve_request_latency_s_bucket{app="chat",le="2.5",op="step"} 2
serve_request_latency_s_bucket{app="chat",le="5.0",op="step"} 2
serve_request_latency_s_bucket{app="chat",le="+Inf",op="step"} 2
serve_request_latency_s_sum{app="chat",op="step"} 2
serve_request_latency_s_count{app="chat",op="step"} 2
# TYPE serve_requests_total counter
serve_requests_total{app="?",op="query",outcome="ok"} 1
serve_requests_total{app="chat",op="step",outcome="error"} 1
serve_requests_total{app="chat",op="step",outcome="ok"} 1
# TYPE serve_span_seconds histogram
serve_span_seconds_bucket{le="0.0005",span="dispatch"} 0
serve_span_seconds_bucket{le="0.001",span="dispatch"} 0
serve_span_seconds_bucket{le="0.0025",span="dispatch"} 0
serve_span_seconds_bucket{le="0.005",span="dispatch"} 0
serve_span_seconds_bucket{le="0.01",span="dispatch"} 1
serve_span_seconds_bucket{le="0.025",span="dispatch"} 1
serve_span_seconds_bucket{le="0.05",span="dispatch"} 1
serve_span_seconds_bucket{le="0.1",span="dispatch"} 1
serve_span_seconds_bucket{le="0.25",span="dispatch"} 2
serve_span_seconds_bucket{le="0.5",span="dispatch"} 2
serve_span_seconds_bucket{le="1.0",span="dispatch"} 2
serve_span_seconds_bucket{le="2.5",span="dispatch"} 2
serve_span_seconds_bucket{le="5.0",span="dispatch"} 2
serve_span_seconds_bucket{le="+Inf",span="dispatch"} 2
serve_span_seconds_sum{span="dispatch"} 0.2578125
serve_span_seconds_count{span="dispatch"} 2
serve_span_seconds_bucket{le="0.0005",span="execute"} 0
serve_span_seconds_bucket{le="0.001",span="execute"} 0
serve_span_seconds_bucket{le="0.0025",span="execute"} 0
serve_span_seconds_bucket{le="0.005",span="execute"} 0
serve_span_seconds_bucket{le="0.01",span="execute"} 0
serve_span_seconds_bucket{le="0.025",span="execute"} 0
serve_span_seconds_bucket{le="0.05",span="execute"} 0
serve_span_seconds_bucket{le="0.1",span="execute"} 0
serve_span_seconds_bucket{le="0.25",span="execute"} 0
serve_span_seconds_bucket{le="0.5",span="execute"} 2
serve_span_seconds_bucket{le="1.0",span="execute"} 2
serve_span_seconds_bucket{le="2.5",span="execute"} 2
serve_span_seconds_bucket{le="5.0",span="execute"} 2
serve_span_seconds_bucket{le="+Inf",span="execute"} 2
serve_span_seconds_sum{span="execute"} 0.9375
serve_span_seconds_count{span="execute"} 2
serve_span_seconds_bucket{le="0.0005",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.001",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.0025",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.005",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.01",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.025",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.05",span="queue-wait"} 0
serve_span_seconds_bucket{le="0.1",span="queue-wait"} 1
serve_span_seconds_bucket{le="0.25",span="queue-wait"} 2
serve_span_seconds_bucket{le="0.5",span="queue-wait"} 2
serve_span_seconds_bucket{le="1.0",span="queue-wait"} 2
serve_span_seconds_bucket{le="2.5",span="queue-wait"} 2
serve_span_seconds_bucket{le="5.0",span="queue-wait"} 2
serve_span_seconds_bucket{le="+Inf",span="queue-wait"} 2
serve_span_seconds_sum{span="queue-wait"} 0.3125
serve_span_seconds_count{span="queue-wait"} 2
serve_span_seconds_bucket{le="0.0005",span="reply"} 0
serve_span_seconds_bucket{le="0.001",span="reply"} 0
serve_span_seconds_bucket{le="0.0025",span="reply"} 0
serve_span_seconds_bucket{le="0.005",span="reply"} 0
serve_span_seconds_bucket{le="0.01",span="reply"} 0
serve_span_seconds_bucket{le="0.025",span="reply"} 0
serve_span_seconds_bucket{le="0.05",span="reply"} 0
serve_span_seconds_bucket{le="0.1",span="reply"} 0
serve_span_seconds_bucket{le="0.25",span="reply"} 0
serve_span_seconds_bucket{le="0.5",span="reply"} 1
serve_span_seconds_bucket{le="1.0",span="reply"} 1
serve_span_seconds_bucket{le="2.5",span="reply"} 1
serve_span_seconds_bucket{le="5.0",span="reply"} 1
serve_span_seconds_bucket{le="+Inf",span="reply"} 1
serve_span_seconds_sum{span="reply"} 0.5
serve_span_seconds_count{span="reply"} 1
"""


def test_telemetry_payload_is_pinned():
    assert json.dumps(_fed_tracer().telemetry(), indent=1) + "\n" == TELEMETRY


def test_prometheus_exposition_is_pinned():
    assert to_prometheus(_fed_tracer().registry) == EXPOSITION
