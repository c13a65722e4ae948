"""Longitudinal observability: metrics history across runs.

A single run's numbers die with the run — a campaign store is keyed
by cell hash with no time axis.  This subpackage gives every
measurement a *history*:

* :mod:`repro.obs.history.store` — an append-only, git-commit-stamped
  JSONL history, following the campaign ``ResultStore`` journal/fsync
  discipline; the committed ``BENCH_trajectory.jsonl`` is one.
* :mod:`repro.obs.history.ingest` — flattens
  :class:`~repro.obs.registry.MetricsRegistry` snapshots into the same
  flat ``metric -> value`` vocabulary.
* :mod:`repro.obs.history.regress` — per-metric rolling
  median-plus-MAD baselines with direction-of-goodness, exposed as
  ``python -m repro.obs regress`` in report-only and gating modes.
"""

from repro.obs.history.ingest import metrics_from_snapshot
from repro.obs.history.regress import (
    Finding,
    RegressPolicy,
    RegressReport,
    detect,
    direction_of,
    render_regression_line,
    render_regressions,
)
from repro.obs.history.store import (
    HISTORY_SCHEMA,
    HISTORY_VERSION,
    HistoryEntry,
    HistoryStore,
)

__all__ = [
    "HISTORY_SCHEMA",
    "HISTORY_VERSION",
    "HistoryEntry",
    "HistoryStore",
    "metrics_from_snapshot",
    "Finding",
    "RegressPolicy",
    "RegressReport",
    "detect",
    "direction_of",
    "render_regression_line",
    "render_regressions",
]
