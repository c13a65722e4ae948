"""The metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` holds every numeric series of a run (or of
the whole process, via :func:`default_registry`).  Series are keyed by
``(name, labels)`` so the same metric can be tracked per protocol, per
scheduler, per robot — the observability layer keys its series by
``protocol x scheduler``, mirroring the verification matrix.

Design constraints, in order:

* **Deterministic.**  Histogram bucket boundaries are fixed at
  creation (default: a decade ladder), ``collect()`` output is sorted,
  and nothing reads a clock — so two identical runs produce identical
  metric snapshots and the JSONL export stays diffable.
* **Cheap.**  An increment is one attribute add on a ``__slots__``
  instance; the hot perf counters (:class:`repro.perf.counters.
  PerfStats`) delegate here without measurable regression.
* **JSON-first.**  ``collect()`` returns plain dicts/lists ready for
  the obs JSONL export and the metrics history.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
]

#: label set in canonical form: sorted (key, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]

#: the decade ladder used when a histogram declares no buckets —
#: spans sub-microsecond phase timings up to multi-second benchmarks.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, hits, firings)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; use a gauge for {amount!r}"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        """The JSON form of this series (for ``collect``)."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (epoch, swarm size, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        """Record the current value."""
        self.value = value

    def snapshot(self) -> Dict[str, object]:
        """The JSON form of this series (for ``collect``)."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A distribution with deterministic, fixed bucket boundaries.

    Buckets are upper bounds (``value <= bound``); observations above
    the last bound land in the implicit overflow bucket.  Sum and count
    are tracked exactly, so means stay available even when the bucket
    resolution is coarse.
    """

    __slots__ = ("bounds", "counts", "overflow", "total", "count")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if not chosen:
            raise ObservabilityError("a histogram needs at least one bucket bound")
        if list(chosen) != sorted(chosen):
            raise ObservabilityError(f"bucket bounds must ascend, got {chosen!r}")
        self.bounds: Tuple[float, ...] = chosen
        self.counts: List[int] = [0] * len(chosen)
        self.overflow = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        slot = bisect.bisect_left(self.bounds, value)
        if slot < len(self.counts):
            self.counts[slot] += 1
        else:
            self.overflow += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """The JSON form of this series (for ``collect``)."""
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "sum": self.total,
            "count": self.count,
        }


_Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of labeled series.

    The accessors are idempotent: asking twice for the same
    ``(name, labels)`` returns the same instrument, so call sites never
    need to coordinate creation.  Re-registering a name with a
    different instrument type is an error — that is always a bug, not
    a use case.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelKey], _Instrument] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter ``name`` for ``labels``, created on first use."""
        return self._get(name, labels, Counter, lambda: Counter())

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge ``name`` for ``labels``, created on first use."""
        return self._get(name, labels, Gauge, lambda: Gauge())

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        """The histogram ``name`` for ``labels``, created on first use.

        ``buckets`` only matters at creation; later calls must either
        omit it or repeat the original bounds.
        """
        instrument = self._get(name, labels, Histogram, lambda: Histogram(buckets))
        if buckets is not None and tuple(buckets) != instrument.bounds:
            raise ObservabilityError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds!r}, asked for {tuple(buckets)!r}"
            )
        return instrument

    def _get(self, name, labels, kind, factory):
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = factory()
        elif not isinstance(instrument, kind):
            raise ObservabilityError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> List[Tuple[str, LabelKey, _Instrument]]:
        """Every registered series, deterministically ordered."""
        return [
            (name, labels, instrument)
            for (name, labels), instrument in sorted(
                self._series.items(), key=lambda item: item[0]
            )
        ]

    def collect(self) -> List[Dict[str, object]]:
        """A JSON-ready, deterministically ordered snapshot."""
        out: List[Dict[str, object]] = []
        for name, labels, instrument in self.series():
            entry: Dict[str, object] = {"name": name}
            if labels:
                entry["labels"] = dict(labels)
            entry.update(instrument.snapshot())
            out.append(entry)
        return out

    def absorb(self, values: Dict[str, Union[int, float]], **labels: object) -> None:
        """Record a block of name->value pairs as gauges.

        Used to fold legacy counter blocks (``PerfStats.as_dict()``,
        the shared-memo stats) into the registry at export time.
        """
        for name, value in values.items():
            self.gauge(name, **labels).set(value)

    def reset(self) -> None:
        """Drop every series (fresh registry)."""
        self._series.clear()


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (e.g. for cross-run aggregation)."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous
