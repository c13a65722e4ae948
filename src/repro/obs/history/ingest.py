"""A registry snapshot in the history's flat metric vocabulary.

:func:`metrics_from_snapshot` flattens a
:class:`~repro.obs.registry.MetricsRegistry` snapshot (any
instrumented run; ``python -m repro.obs diff`` compares two) into the
same flat ``metric name -> number`` mapping a history entry carries,
so the regression detector and the differ never care where a number
came from.  Labeled registry series use the ``name{key=value,...}``
convention — deterministic (labels sorted), parse-free (the name is
the identity), and grep-friendly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

__all__ = ["metrics_from_snapshot"]


def _labeled_name(name: str, labels: Optional[Mapping[str, object]]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def metrics_from_snapshot(
    snapshot: Iterable[Mapping[str, object]]
) -> Dict[str, float]:
    """A ``MetricsRegistry.collect()`` snapshot as flat history metrics.

    Counters and gauges contribute their value under
    ``name{labels}``; histograms contribute ``.count``, ``.sum`` and
    ``.mean`` (the mean is recomputed exactly from sum/count).
    """
    out: Dict[str, float] = {}
    for entry in snapshot:
        name = _labeled_name(str(entry.get("name", "?")), entry.get("labels"))
        if entry.get("type") == "histogram":
            count = float(entry.get("count", 0))  # type: ignore[arg-type]
            total = float(entry.get("sum", 0.0))  # type: ignore[arg-type]
            out[f"{name}.count"] = count
            out[f"{name}.sum"] = total
            out[f"{name}.mean"] = total / count if count else 0.0
        else:
            value = entry.get("value", 0)
            if isinstance(value, bool):
                out[name] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                out[name] = float(value)
    return out
