"""Unified observability: structured run tracing, metrics, inspection.

The paper's robots communicate by *motion* — the only evidence that a
bit was spoken or heard is buried in a geometric trace.  This
subpackage makes runs observable without changing them:

* :mod:`repro.obs.events` / :mod:`repro.obs.spans` — the structured
  event and span model (activation cycles, scheduler decisions,
  displacement faults, the bit lifecycle, monitor firings).
  :class:`~repro.obs.spans.Span` is the one span record: model-time
  activation and bit spans and the serving tier's request spans.
* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  deterministic-bucket histograms, labeled per protocol x scheduler;
  supersedes the ad-hoc :class:`~repro.perf.counters.PerfStats` block
  (which now delegates here).
* :class:`~repro.obs.recorder.ObsRecorder` — attaches to a simulator
  and records everything; **bit-transparent** (an instrumented run
  produces a byte-identical trace) and **zero-overhead when
  disabled** (no recorder => no dispatches; see
  :func:`~repro.obs.recorder.dispatch_count`, the one dispatch
  witness, which the request tracer bumps too).
* :mod:`repro.obs.export` — versioned JSONL export (``repro-obs-v1``)
  with exact round-trips and line-numbered
  :class:`~repro.errors.TraceFormatError` diagnostics.
* ``python -m repro.obs`` — render the activation timeline, the bit
  Gantt, metrics tables and the hot-path profile from an exported run
  (see :mod:`repro.obs.report`).
* :mod:`repro.obs.history` — the *longitudinal* layer: an append-only
  git-commit-stamped metrics history (the committed
  ``BENCH_trajectory.jsonl``), registry-snapshot flattening, and
  median+MAD regression gating (``python -m repro.obs regress``).
* :mod:`repro.obs.profiler` — deterministic self/total-time hotspot
  tables over phase and bit spans (``python -m repro.obs hotspots``);
  :func:`~repro.obs.profiler.phase_hotspots` is the one fold over
  ``phase`` events, which the report's profile view renders too.
* :mod:`repro.obs.diff` — run and history-entry diffing with
  first-divergence localization (``python -m repro.obs diff``).
* :mod:`repro.obs.causal` — happens-before DAGs from vector-clock
  stamped traces, per-flow critical paths with 100% latency
  attribution, and causality invariants (``python -m repro.obs
  causal``; swept by ``python -m repro.verify --causal-oracle``).
* :mod:`repro.obs.stream` — the live tap: a bounded
  :class:`~repro.obs.stream.StreamingSink` the recorder tees into and
  rolling per-flow latency percentiles (``python -m repro.obs watch``)
  over :class:`~repro.obs.stream.RollingWindows`, the one keyed
  rolling window (the request tracer's windows are the same class).
* :mod:`repro.obs.live` / :mod:`repro.obs.slo` — the serving-tier
  plane: request-scoped traces with telescoping spans
  (:class:`~repro.obs.live.RequestTracer`), Prometheus text
  exposition, SLO attainment/error-budget burn, and the
  ``python -m repro.obs top`` terminal dashboard.
"""

from repro.obs.causal import (
    CausalTrace,
    build_causal,
    causal_to_dot,
    causal_to_json,
    check_invariants,
    critical_path,
    load_causal,
    render_causal,
    render_critical_path,
)
from repro.obs.diff import RunDiff, diff_history_entries, diff_runs, render_diff
from repro.obs.events import Event
from repro.obs.export import ObsRun, dump_run, load_run, run_from_jsonl, run_to_jsonl
from repro.obs.live import (
    RequestTrace,
    RequestTracer,
    TraceRing,
    render_top,
    to_prometheus,
    validate_exposition,
)
from repro.obs.recorder import ObsRecorder, dispatch_count
from repro.obs.slo import SLO, SLOTracker, default_serve_slos, slos_from_json
from repro.obs.stream import (
    FlowLatencyTracker,
    RollingWindows,
    StreamingSink,
    watch_file,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.history import (
    HistoryEntry,
    HistoryStore,
    RegressPolicy,
    detect,
    render_regressions,
)
from repro.obs.profiler import flow_hotspots, phase_hotspots, render_hotspots
from repro.obs.report import render_report
from repro.obs.spans import Span, activation_spans, bit_spans

__all__ = [
    "Event",
    "Span",
    "ObsRun",
    "ObsRecorder",
    "HistoryEntry",
    "HistoryStore",
    "RegressPolicy",
    "RunDiff",
    "detect",
    "diff_runs",
    "diff_history_entries",
    "render_regressions",
    "render_hotspots",
    "render_diff",
    "phase_hotspots",
    "flow_hotspots",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "default_registry",
    "set_default_registry",
    "dispatch_count",
    "activation_spans",
    "bit_spans",
    "run_to_jsonl",
    "run_from_jsonl",
    "dump_run",
    "load_run",
    "render_report",
    "CausalTrace",
    "build_causal",
    "load_causal",
    "critical_path",
    "check_invariants",
    "render_causal",
    "render_critical_path",
    "causal_to_json",
    "causal_to_dot",
    "StreamingSink",
    "FlowLatencyTracker",
    "RollingWindows",
    "watch_file",
    "RequestTrace",
    "RequestTracer",
    "TraceRing",
    "render_top",
    "to_prometheus",
    "validate_exposition",
    "SLO",
    "SLOTracker",
    "default_serve_slos",
    "slos_from_json",
]
