"""Live telemetry tap: a bounded sink and a rolling-latency watcher.

Post-mortem JSONL dumps answer "what happened?"; the serving layer
(ROADMAP item 3) needs "what is happening?".  This module provides the
substrate:

* :class:`StreamingSink` — a bounded, thread-safe queue the recorder
  tees every event into (``recorder.add_sink(sink)``).  When full it
  drops the oldest events and counts the drops, so a slow consumer can
  never stall or bloat the simulation.
* :class:`RollingWindows` — per-key rolling latency windows with
  nearest-rank p50/p90/p99 (:func:`percentile`); the one window type,
  also behind :class:`~repro.obs.live.RequestTracer`'s request and
  span rows.
* :class:`FlowLatencyTracker` — folds bit-lifecycle events into rolling
  per-flow latency windows and reports nearest-rank percentiles.
* :func:`watch_file` — tails a ``repro-obs-v1`` JSONL trace that a
  concurrent recording is appending to, printing a rolling per-flow
  latency table (the ``python -m repro.obs watch`` command).

Everything here is consumer-side: attaching a sink costs the recorder
one ``accept`` call per event it was already emitting, and nothing at
all when obs is disabled (no recorder, no sink).
"""

from __future__ import annotations

import json
import sys
import threading
import time as _time
from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, TextIO, Tuple

from repro.errors import ObservabilityError

from .events import BIT_ACK, BIT_ENCODE_STARTED, BIT_RECEIPT, Event
from .export import _open_text

__all__ = ["StreamingSink", "FlowLatencyTracker", "RollingWindows",
           "percentile", "watch_file"]


class StreamingSink:
    """A bounded drop-oldest event queue safe to drain from another thread.

    Pass a :class:`~repro.obs.registry.MetricsRegistry` to surface the
    drops as an ``obs_stream_dropped_events`` counter — a consumer
    falling behind then shows up on the metrics endpoint instead of
    only in this object's own ``dropped`` property.
    """

    def __init__(self, maxlen: int = 4096, registry=None) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self._maxlen = maxlen
        self._lock = threading.Lock()
        self._queue: Deque[Event] = deque()
        self._dropped = 0
        self._accepted = 0
        self._c_dropped = (
            registry.counter("obs_stream_dropped_events")
            if registry is not None
            else None
        )

    def accept(self, event: Event) -> None:
        """Called by the recorder for every emitted event."""
        with self._lock:
            if len(self._queue) >= self._maxlen:
                self._queue.popleft()
                self._dropped += 1
                if self._c_dropped is not None:
                    self._c_dropped.inc()
            self._queue.append(event)
            self._accepted += 1

    def drain(self) -> List[Event]:
        """Remove and return everything queued so far."""
        with self._lock:
            drained = list(self._queue)
            self._queue.clear()
        return drained

    @property
    def dropped(self) -> int:
        """Events discarded because the consumer fell behind."""
        with self._lock:
            return self._dropped

    @property
    def accepted(self) -> int:
        """Events ever offered to the sink (including later drops)."""
        with self._lock:
            return self._accepted

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 if empty).

    ``q`` is a percent; rank ``ceil(q * n / 100)``, at least 1, as in
    numpy's ``method="inverted_cdf"``.  Every latency percentile that
    :mod:`repro.obs` and :mod:`repro.serve` report comes from here.
    """
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 100)))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


class RollingWindows:
    """Rolling per-key latency windows with nearest-rank percentiles.

    Each key keeps its latest ``window`` samples; ``count`` is every
    sample the key ever saw.  Bounded however long it runs.
    """

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ObservabilityError(f"window must be positive, got {window}")
        self._window = window
        self._samples: Dict[Hashable, Deque[float]] = {}
        self._count: Dict[Hashable, int] = {}

    def observe(self, key: Hashable, value: float) -> None:
        """Fold one sample into its key's window."""
        samples = self._samples.get(key)
        if samples is None:
            samples = self._samples[key] = deque(maxlen=self._window)
        samples.append(value)
        self._count[key] = self._count.get(key, 0) + 1

    def keys(self) -> List[Hashable]:
        """Every key observed so far, sorted."""
        return sorted(self._samples)

    def count(self, key: Hashable) -> int:
        """Samples ever observed for ``key``."""
        return self._count.get(key, 0)

    def row(self, key: Hashable) -> Dict[str, object]:
        """One key's retained sample count plus rolling p50/p90/p99."""
        sample = sorted(self._samples.get(key, ()))
        return {
            "window": len(sample),
            "p50": percentile(sample, 50),
            "p90": percentile(sample, 90),
            "p99": percentile(sample, 99),
        }


class FlowLatencyTracker:
    """Rolling per-flow bit-latency percentiles from a live event feed."""

    def __init__(self, window: int = 256) -> None:
        self._latencies = RollingWindows(window)
        self._encode_time: Dict[Tuple[int, int, int], int] = {}
        self._sent: Dict[Tuple[int, int], int] = {}
        self._delivered: Dict[Tuple[int, int], int] = {}
        self._acked: Dict[Tuple[int, int], int] = {}

    def consume(self, event: Event) -> None:
        """Fold one bit-lifecycle event into the rolling flow state."""
        kind = event.kind
        if kind not in (BIT_ENCODE_STARTED, BIT_RECEIPT, BIT_ACK):
            return
        src = event.get("src")
        dst = event.get("dst")
        if not isinstance(src, int) or not isinstance(dst, int):
            return
        flow = (int(src), int(dst))
        seq = event.get("seq")
        seq = int(seq) if isinstance(seq, int) and not isinstance(seq, bool) else -1
        if kind == BIT_ENCODE_STARTED:
            self._sent[flow] = self._sent.get(flow, 0) + 1
            self._encode_time[flow + (seq,)] = event.time
        elif kind == BIT_RECEIPT:
            self._delivered[flow] = self._delivered.get(flow, 0) + 1
        else:  # BIT_ACK — closes the bit's end-to-end leg
            self._acked[flow] = self._acked.get(flow, 0) + 1
            encode_time = self._encode_time.pop(flow + (seq,), None)
            if encode_time is None:
                return
            self._latencies.observe(flow, float(event.time - encode_time))

    def snapshot(self) -> List[Dict[str, object]]:
        """One row per flow: counters plus rolling p50/p90/p99."""
        return [
            {
                "flow": f"{flow[0]}->{flow[1]}",
                "sent": self._sent.get(flow, 0),
                "delivered": self._delivered.get(flow, 0),
                "acked": self._acked.get(flow, 0),
                **self._latencies.row(flow),
            }
            for flow in sorted(set(self._sent) | set(self._latencies.keys()))
        ]

    def render(self) -> str:
        """One ASCII table row per flow: sent/recv/acked + percentiles."""
        rows = self.snapshot()
        if not rows:
            return "(no bit-lifecycle events yet)"
        header = (
            f"{'flow':<10} {'sent':>6} {'recv':>6} {'acked':>6} "
            f"{'p50':>8} {'p90':>8} {'p99':>8}"
        )
        lines = [header]
        for row in rows:
            lines.append(
                f"{row['flow']:<10} {row['sent']:>6} {row['delivered']:>6} "
                f"{row['acked']:>6} {row['p50']:>8g} {row['p90']:>8g} "
                f"{row['p99']:>8g}"
            )
        return "\n".join(lines)


def _parse_line(line: str) -> Optional[Event]:
    """A trace line as an event, or None for headers/metrics/garbage."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None  # partial line from a concurrent writer
    if not isinstance(record, dict) or "kind" not in record:
        return None  # header or metrics record
    try:
        return Event.from_json(record)
    except Exception:
        return None
    # Unknown kinds (future schema) are skipped, never fatal: a live
    # tap must survive whatever the producer appends.


def watch_file(
    path: str,
    *,
    interval: float = 2.0,
    iterations: int = 0,
    window: int = 256,
    out: Optional[TextIO] = None,
    once: bool = False,
    sleep=_time.sleep,
) -> int:
    """Tail a ``repro-obs-v1`` trace, printing rolling flow latencies.

    ``iterations=0`` means run until interrupted.  ``once`` (or a
    ``.gz`` path, which cannot be tailed incrementally) loads the whole
    file, prints one frame, and returns.  Returns the number of events
    consumed.
    """
    stream = out if out is not None else sys.stdout
    tracker = FlowLatencyTracker(window=window)
    consumed = 0

    if once or path.endswith(".gz"):
        with _open_text(path, "r") as handle:
            for line in handle.read().split("\n"):
                event = _parse_line(line)
                if event is not None:
                    tracker.consume(event)
                    consumed += 1
        print(tracker.render(), file=stream)
        return consumed

    buf = ""
    frame = 0
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            buf += handle.read()
            lines = buf.split("\n")
            buf = lines.pop()  # keep the (possibly partial) tail
            for line in lines:
                event = _parse_line(line)
                if event is not None:
                    tracker.consume(event)
                    consumed += 1
            frame += 1
            print(f"-- watch frame {frame} ({consumed} events) --", file=stream)
            print(tracker.render(), file=stream)
            stream.flush()
            if iterations and frame >= iterations:
                break
            sleep(interval)
    return consumed
