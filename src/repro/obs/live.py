"""The serving-tier observability plane: request tracing + exposition.

Post-mortem traces (:mod:`repro.obs.export`) and the causal DAG
(:mod:`repro.obs.causal`) answer "what happened inside the swarm?";
this module answers the operator's question — *what is the service
doing to my request, right now?* — with four pieces:

* :class:`RequestTrace` / :class:`RequestSpan` — one trace per client
  request, carrying a trace id, the op/app/session it belongs to, and
  named spans (``queue-wait``, ``restore``, ``dispatch``,
  ``execute``) whose durations telescope to the request's
  client-observed latency, the same attribution discipline
  :mod:`repro.obs.causal` enforces for bit flights.  A trace carries
  its session id, so it joins the causal DAG of a recorded session
  (``ObsRecorder(meta={"session": sid})``) on that key.
* :class:`TraceRing` — a bounded ring of completed traces (drop-oldest
  with a drop counter, the :class:`~repro.obs.stream.StreamingSink`
  discipline): the post-mortem buffer ``telemetry`` serves.
* :class:`WindowAggregator` — rolling nearest-rank p50/p90/p99 per
  ``op x app`` (and per span name), the live twin of
  :class:`~repro.obs.stream.FlowLatencyTracker`.
* :class:`RequestTracer` — the facade the serving layer drives:
  ``start`` / ``finish`` feed the ring, the windows, the
  :class:`~repro.obs.slo.SLOTracker` and the metrics registry
  (``serve_requests_total{op,app,outcome}``,
  ``serve_request_latency_s{op,app}``,
  ``serve_span_seconds{span}``).

Plus the exposition surface: :func:`to_prometheus` renders any
:class:`~repro.obs.registry.MetricsRegistry` in Prometheus text
format (validated by :func:`validate_exposition` — the CI scrape
gate), and :func:`render_top` draws one frame of the
``python -m repro.obs top`` terminal dashboard from a ``telemetry``
reply.

The whole plane honours the obs layer's zero-dispatch contract:
constructing a :class:`~repro.serve.manager.SessionManager` without a
tracer leaves every hook ``None`` and :func:`dispatch_count` frozen —
enforced by ``tests/serve/test_tracing.py``.
"""

from __future__ import annotations

import itertools
import time as _time
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOTracker, default_serve_slos
from repro.obs.stream import percentile

__all__ = [
    "RequestSpan",
    "RequestTrace",
    "RequestTracer",
    "TraceRing",
    "WindowAggregator",
    "dispatch_count",
    "render_top",
    "to_prometheus",
    "validate_exposition",
]

#: request-latency histogram buckets (seconds) — the manager's
#: step-latency ladder, reused so the two stay comparable.
REQUEST_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: process-wide count of request-tracer dispatches; stays frozen while
#: no tracer is wired in (the zero-overhead-when-disabled witness,
#: mirroring :func:`repro.obs.recorder.dispatch_count`).
_dispatches = 0


def dispatch_count() -> int:
    """How many tracer dispatches happened in this process so far."""
    return _dispatches


def _bump() -> None:
    global _dispatches
    _dispatches += 1


# ----------------------------------------------------------------------
# Traces and spans
# ----------------------------------------------------------------------

class RequestSpan:
    """One named, timed leg of a request (durations, not wall clocks)."""

    __slots__ = ("name", "start", "end")

    def __init__(self, name: str, start: float, end: float) -> None:
        self.name = name
        self.start = start
        self.end = end

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        """The JSON form of this span (for the telemetry payload)."""
        return {"span": self.name, "start": self.start, "end": self.end,
                "seconds": self.seconds}

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"RequestSpan({self.name!r}, {self.seconds:.6f}s)"


class RequestTrace:
    """One client request, from admission to future resolution.

    Spans are *attribution*, not literal intervals: their durations
    are chosen to telescope, so ``sum(span.seconds)`` accounts for the
    trace's end-to-end latency the way the causal DAG's edge
    categories account for a bit flight's.
    """

    __slots__ = ("trace_id", "op", "app", "sid", "started", "ended",
                 "error", "spans")

    def __init__(
        self,
        trace_id: str,
        op: str,
        app: Optional[str] = None,
        sid: Optional[str] = None,
        started: Optional[float] = None,
    ) -> None:
        self.trace_id = trace_id
        self.op = op
        self.app = app
        self.sid = sid
        self.started = _time.perf_counter() if started is None else started
        self.ended: Optional[float] = None
        self.error: Optional[str] = None
        self.spans: List[RequestSpan] = []

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record one attributed leg (clamped to non-negative)."""
        self.spans.append(RequestSpan(name, start, max(start, end)))

    @property
    def seconds(self) -> float:
        """End-to-end latency (0.0 while still open)."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    def span_seconds(self) -> Dict[str, float]:
        """Total attributed seconds per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def coverage(self) -> float:
        """Fraction of end-to-end latency the spans account for."""
        total = self.seconds
        if total <= 0.0:
            return 1.0 if not self.spans else 0.0
        return sum(span.seconds for span in self.spans) / total

    def to_json(self) -> Dict[str, object]:
        """The JSON form of this trace (id, spans, latency, error)."""
        doc: Dict[str, object] = {
            "trace": self.trace_id,
            "op": self.op,
            "app": self.app,
            "sid": self.sid,
            "seconds": self.seconds,
            "spans": [span.to_json() for span in self.spans],
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class TraceRing:
    """A bounded drop-oldest ring of completed request traces."""

    def __init__(self, maxlen: int = 2048) -> None:
        if maxlen <= 0:
            raise ObservabilityError("trace ring capacity must be positive")
        self._maxlen = maxlen
        self._ring: Deque[RequestTrace] = deque(maxlen=maxlen)
        self._dropped = 0
        self._added = 0

    def add(self, trace: RequestTrace) -> None:
        """Retain one completed trace (dropping the oldest when full)."""
        if len(self._ring) == self._maxlen:
            self._dropped += 1
        self._ring.append(trace)
        self._added += 1

    def find(self, trace_id: str) -> Optional[RequestTrace]:
        """The newest retained trace with this id, or None."""
        for trace in reversed(self._ring):
            if trace.trace_id == trace_id:
                return trace
        return None

    def traces(self) -> List[RequestTrace]:
        """Every retained trace, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def added(self) -> int:
        return self._added

    def __len__(self) -> int:
        return len(self._ring)


# ----------------------------------------------------------------------
# Rolling windows
# ----------------------------------------------------------------------

class WindowAggregator:
    """Rolling per-key latency percentiles + error counts.

    Keys are ``(op, app)`` pairs (the request windows) or bare span
    names (the span windows) — anything hashable and sortable works.
    """

    def __init__(self, window: int = 512) -> None:
        if window <= 0:
            raise ObservabilityError("aggregator window must be positive")
        self._window = window
        self._latencies: Dict[Tuple[str, str], Deque[float]] = {}
        self._count: Dict[Tuple[str, str], int] = {}
        self._errors: Dict[Tuple[str, str], int] = {}

    def observe(self, op: str, app: str, seconds: float,
                error: bool = False) -> None:
        """Fold one observation into its key's rolling window."""
        key = (op, app)
        window = self._latencies.get(key)
        if window is None:
            window = self._latencies[key] = deque(maxlen=self._window)
        window.append(seconds)
        self._count[key] = self._count.get(key, 0) + 1
        if error:
            self._errors[key] = self._errors.get(key, 0) + 1

    def percentile(self, op: str, app: str, q: float) -> float:
        """Nearest-rank percentile of one key's window (0.0 if empty)."""
        return percentile(sorted(self._latencies.get((op, app), ())), q)

    def snapshot(self) -> List[Dict[str, object]]:
        """One row per key: counts plus rolling p50/p90/p99 (seconds)."""
        rows: List[Dict[str, object]] = []
        for key in sorted(self._latencies):
            sample = sorted(self._latencies[key])
            rows.append(
                {
                    "op": key[0],
                    "app": key[1],
                    "count": self._count.get(key, 0),
                    "errors": self._errors.get(key, 0),
                    "window": len(sample),
                    "p50": percentile(sample, 50),
                    "p90": percentile(sample, 90),
                    "p99": percentile(sample, 99),
                }
            )
        return rows


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class RequestTracer:
    """The serving layer's request-scoped tracing facade.

    One per service process, wired into the
    :class:`~repro.serve.manager.SessionManager` (``tracer=`` knob).
    Everything it owns is bounded: the trace ring drops oldest, the
    windows roll, the SLO verdict deques roll — a tracer can run for
    months without growing.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        ring_size: int = 2048,
        window: int = 512,
        slos=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ring = TraceRing(ring_size)
        self.requests = WindowAggregator(window)
        self.spans = WindowAggregator(window)
        self.slo = SLOTracker(default_serve_slos() if slos is None else slos)
        self._ids = itertools.count(1)

    def next_id(self) -> str:
        """A fresh service-generated trace id."""
        return f"r{next(self._ids):08d}"

    def start(
        self,
        op: str,
        app: Optional[str] = None,
        sid: Optional[str] = None,
        trace_id: Optional[str] = None,
        started: Optional[float] = None,
    ) -> RequestTrace:
        """Open a trace; the caller keeps it and hands it to finish."""
        _bump()
        return RequestTrace(
            trace_id if trace_id else self.next_id(),
            op, app=app, sid=sid, started=started,
        )

    def finish(
        self,
        trace: RequestTrace,
        error: Optional[str] = None,
        ended: Optional[float] = None,
    ) -> RequestTrace:
        """Close a trace: ring it, window it, judge it, count it."""
        _bump()
        trace.ended = _time.perf_counter() if ended is None else ended
        trace.error = error
        app = trace.app or "?"
        seconds = trace.seconds
        self.ring.add(trace)
        self.requests.observe(trace.op, app, seconds, error=error is not None)
        for span in trace.spans:
            self.spans.observe(span.name, "*", span.seconds)
        self.slo.observe(trace.op, seconds, error=error is not None)
        outcome = "error" if error is not None else "ok"
        self.registry.counter(
            "serve_requests_total", op=trace.op, app=app, outcome=outcome
        ).inc()
        self.registry.histogram(
            "serve_request_latency_s",
            buckets=REQUEST_LATENCY_BOUNDS,
            op=trace.op,
            app=app,
        ).observe(seconds)
        for name, total in trace.span_seconds().items():
            self.registry.histogram(
                "serve_span_seconds",
                buckets=REQUEST_LATENCY_BOUNDS,
                span=name,
            ).observe(total)
        return trace

    def span_percentile(self, span: str, q: float) -> float:
        """Rolling percentile of one span's window (seconds)."""
        return self.spans.percentile(span, "*", q)

    def telemetry(self) -> Dict[str, object]:
        """The live dashboard payload (the ``telemetry`` wire op)."""
        return {
            "requests": self.requests.snapshot(),
            "spans": self.spans.snapshot(),
            "slos": self.slo.status(),
            "ring": {
                "retained": len(self.ring),
                "added": self.ring.added,
                "dropped": self.ring.dropped,
            },
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_TYPE_NAMES = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sanitize(name: str) -> str:
    out = []
    for i, ch in enumerate(name):
        ok = ch.isascii() and (ch.isalpha() or ch == "_" or ch == ":"
                               or (ch.isdigit() and i > 0))
        out.append(ch if ok else "_")
    return "".join(out)


def _labels_text(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(str(k))}="{_escape_label(str(v))}"'
        for k, v in sorted(labels.items(), key=lambda kv: str(kv[0]))
    )
    return "{" + inner + "}"


def _format_value(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in Prometheus text exposition format (0.0.4).

    Counters and gauges become one sample each; histograms become the
    conventional cumulative ``_bucket{le=...}`` ladder (closed by
    ``le="+Inf"``) plus ``_sum`` and ``_count``.  Series sharing a
    name share one ``# TYPE`` header; output order is the registry's
    deterministic order, so two identical runs scrape identically.
    """
    lines: List[str] = []
    typed: set = set()
    for name, label_key, instrument in registry.series():
        metric = _sanitize(name)
        labels = dict(label_key)
        snap = instrument.snapshot()
        kind = str(snap["type"])
        if metric not in typed:
            lines.append(f"# TYPE {metric} {_TYPE_NAMES[kind]}")
            typed.add(metric)
        if kind == "histogram":
            cumulative = 0
            for bound, count in zip(snap["bounds"], snap["counts"]):  # type: ignore[arg-type]
                cumulative += count
                bucket_labels = dict(labels, le=repr(float(bound)))
                lines.append(
                    f"{metric}_bucket{_labels_text(bucket_labels)} {cumulative}"
                )
            cumulative += int(snap["overflow"])  # type: ignore[arg-type]
            lines.append(
                f"{metric}_bucket{_labels_text(dict(labels, le='+Inf'))} "
                f"{cumulative}"
            )
            lines.append(
                f"{metric}_sum{_labels_text(labels)} "
                f"{_format_value(snap['sum'])}"
            )
            lines.append(
                f"{metric}_count{_labels_text(labels)} {snap['count']}"
            )
        else:
            lines.append(
                f"{metric}{_labels_text(labels)} {_format_value(snap['value'])}"
            )
    return "\n".join(lines) + "\n"


#: one sample line: name, optional {labels}, value, optional timestamp.
import re as _re

_SAMPLE_RE = _re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[^{}]*\})?"                       # optional label set
    r" -?(\d+(\.\d+)?([eE][+-]?\d+)?|Inf|NaN)"  # value
    r"( -?\d+)?$"                          # optional timestamp
)
_LABEL_RE = _re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$'
)


def validate_exposition(text: str) -> int:
    """Check Prometheus text-format validity; returns the sample count.

    Raises:
        ObservabilityError: naming the first offending line — the CI
            scrape step fails loudly instead of uploading garbage.
    """
    samples = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] not in ("TYPE", "HELP"):
                raise ObservabilityError(
                    f"exposition line {lineno}: unknown comment form {line!r}"
                )
            if len(parts) >= 2 and parts[1] == "TYPE" and (
                len(parts) != 4
                or parts[3] not in ("counter", "gauge", "histogram",
                                    "summary", "untyped")
            ):
                raise ObservabilityError(
                    f"exposition line {lineno}: malformed TYPE {line!r}"
                )
            continue
        if not _SAMPLE_RE.match(line):
            raise ObservabilityError(
                f"exposition line {lineno}: malformed sample {line!r}"
            )
        brace = line.find("{")
        if brace >= 0:
            inner = line[brace + 1 : line.rindex("}")]
            for pair in filter(None, inner.split(",")):
                if not _LABEL_RE.match(pair):
                    raise ObservabilityError(
                        f"exposition line {lineno}: malformed label {pair!r}"
                    )
        samples += 1
    if samples == 0:
        raise ObservabilityError("exposition carries no samples")
    return samples


# ----------------------------------------------------------------------
# The top dashboard
# ----------------------------------------------------------------------

def _ms(value: object) -> str:
    return f"{1e3 * float(value):8.2f}"  # type: ignore[arg-type]


def render_top(frame: Mapping[str, object]) -> str:
    """One frame of ``python -m repro.obs top`` from a telemetry reply.

    ``frame`` is the ``telemetry`` wire payload: service ``stats``,
    the ``health`` verdict, rolling request/span windows and SLO rows.
    """
    stats = frame.get("stats") or {}
    health = frame.get("health") or {}
    lines: List[str] = []
    status = str(health.get("status", "?"))
    lines.append(
        f"service: {status.upper():<9s} "
        f"open {stats.get('open', 0)} (live {stats.get('live', 0)}, "
        f"evicted {stats.get('evicted', 0)})  "
        f"queue {stats.get('queue_depth', 0)}  "
        f"workers {stats.get('workers', '?')}  "
        f"accepting {stats.get('accepting', '?')}"
    )
    lines.append(
        f"totals:  created {stats.get('created', 0)}  "
        f"closed {stats.get('closed', 0)}  "
        f"instants {stats.get('instants', 0)}  "
        f"evictions {stats.get('evictions', 0)}  "
        f"restores {stats.get('restores', 0)}  "
        f"rejections {stats.get('rejections', 0)}"
    )
    requests = frame.get("requests") or []
    lines.append("")
    if requests:
        lines.append(
            f"{'op':<12s} {'app':<16s} {'count':>7s} {'err':>5s} "
            f"{'p50 ms':>8s} {'p90 ms':>8s} {'p99 ms':>8s}"
        )
        for row in requests:
            lines.append(
                f"{str(row['op']):<12s} {str(row['app']):<16s} "
                f"{row['count']:>7} {row['errors']:>5} "
                f"{_ms(row['p50'])} {_ms(row['p90'])} {_ms(row['p99'])}"
            )
    else:
        lines.append("(no requests in the window yet)")
    spans = frame.get("spans") or []
    if spans:
        lines.append("")
        lines.append(
            f"{'span':<12s} {'count':>7s} "
            f"{'p50 ms':>8s} {'p90 ms':>8s} {'p99 ms':>8s}"
        )
        for row in spans:
            lines.append(
                f"{str(row['op']):<12s} {row['count']:>7} "
                f"{_ms(row['p50'])} {_ms(row['p90'])} {_ms(row['p99'])}"
            )
    slos = frame.get("slos") or []
    if slos:
        lines.append("")
        lines.append(
            f"{'slo':<16s} {'objective':<28s} {'attained':>9s} "
            f"{'burn':>7s}  verdict"
        )
        for row in slos:
            lines.append(
                f"{str(row['name']):<16s} {str(row['objective']):<28s} "
                f"{100.0 * float(row['attainment']):>8.3f}% "  # type: ignore[arg-type]
                f"{float(row['burn']):>7.2f}  "  # type: ignore[arg-type]
                f"{'ok' if row['ok'] else 'VIOLATED'}"
            )
    ring = frame.get("ring") or {}
    if ring:
        lines.append("")
        lines.append(
            f"trace ring: {ring.get('retained', 0)} retained / "
            f"{ring.get('added', 0)} added / {ring.get('dropped', 0)} dropped"
        )
    return "\n".join(lines)
