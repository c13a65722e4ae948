"""Adapters: every measurement source becomes one history vocabulary.

* :func:`entry_from_campaign` turns a campaign
  :class:`~repro.campaign.store.ResultStore` directory into a history
  entry (``python -m repro.campaign export-history``);
* :func:`metrics_from_snapshot` flattens a
  :class:`~repro.obs.registry.MetricsRegistry` snapshot (any
  instrumented run; ``python -m repro.obs diff`` compares two).

Both yield the same flat ``metric name -> number`` mapping so the
regression detector and the differ never care where a number came
from.  Labeled registry series use the ``name{key=value,...}``
convention — deterministic (labels sorted), parse-free (the name is
the identity), and grep-friendly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.obs.history.store import HistoryEntry

__all__ = [
    "metrics_from_snapshot",
    "entry_from_campaign",
]


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


def _cell_label(kind: str, params: Mapping[str, object]) -> str:
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{kind}{{{inner}}}" if inner else kind


def entry_from_campaign(store) -> HistoryEntry:
    """A history entry from a finished campaign result store.

    Aggregates (cell counts, statuses, total wall clock) plus one
    ``cell.<kind>{params}.elapsed_s`` series per cell keyed by the
    cell's *parameters* — stable across re-runs and hash changes,
    unlike the content hash the store files are named by.
    """
    header = store.read_header()
    timings = store.cell_timings()
    metrics: Dict[str, float] = {}
    total = ok = failed = payload_ok = attempts = 0
    for record in store.iter_results():
        total += 1
        attempts += record.attempts
        if record.status == "ok":
            ok += 1
        else:
            failed += 1
        if record.payload_ok:
            payload_ok += 1
        elapsed = timings.get(record.cell_id)
        if elapsed is not None:
            label = _cell_label(record.kind, record.params)
            metrics[f"cell.{label}.elapsed_s"] = elapsed
    metrics.update(
        {
            "cells_total": float(total),
            "cells_ok": float(ok),
            "cells_failed": float(failed),
            "cells_payload_ok": float(payload_ok),
            "attempts_total": float(attempts),
            "elapsed_s": sum(timings.values()),
        }
    )
    return HistoryEntry(
        source="campaign",
        run_id=str(header.get("name", "?")),
        metrics=metrics,
        meta={
            "spec_hash": header.get("spec_hash"),
            "store": str(store.root),
        },
        git_commit=header.get("git_commit"),  # type: ignore[arg-type]
    )
