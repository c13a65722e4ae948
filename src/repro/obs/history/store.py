"""The append-only metrics history store — ``BENCH_trajectory.jsonl``.

One JSON object per line, each line a complete, self-describing
:class:`HistoryEntry`: a monotonically increasing ``seq``, a
wall-clock stamp, the git commit the numbers were measured at, a
free-form ``meta`` block, and a flat ``metric name -> number``
mapping.  Appends follow the campaign journal discipline — written,
flushed, ``fsync``'d — so a crash can truncate at most the line being
written, never corrupt earlier ones.  The repository's committed
benchmark trajectory (``benchmarks/trajectory.py`` appends one line
per change) is such a file.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceFormatError

__all__ = ["HISTORY_SCHEMA", "HISTORY_VERSION", "HistoryEntry", "HistoryStore"]

#: schema tag of one history line; bump the version when a
#: consumer-visible key changes shape.
HISTORY_SCHEMA = "repro-bench-history"
HISTORY_VERSION = 1


@dataclass
class HistoryEntry:
    """One measurement epoch: who measured what, when, at which commit.

    ``metrics`` is deliberately flat (``name -> number``): the
    regression detector and the differ both want a single vocabulary, not nested per-probe documents.  Label-carrying
    names use the ``name{key=value,...}`` convention of
    :func:`~repro.obs.history.ingest.metrics_from_snapshot`.
    """

    source: str
    run_id: str
    metrics: Dict[str, float]
    meta: Dict[str, object] = field(default_factory=dict)
    git_commit: Optional[str] = None
    recorded_at: Optional[float] = None
    seq: Optional[int] = None

    def to_json(self) -> Dict[str, object]:
        """The deterministic on-disk form of this entry."""
        return {
            "schema": HISTORY_SCHEMA,
            "version": HISTORY_VERSION,
            "seq": self.seq,
            "recorded_at": self.recorded_at,
            "git_commit": self.git_commit,
            "source": self.source,
            "run_id": self.run_id,
            "meta": dict(self.meta),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "HistoryEntry":
        """Parse one history line (inverse of :meth:`to_json`)."""
        if doc.get("schema") != HISTORY_SCHEMA:
            raise TraceFormatError(
                f"not a history entry (schema={doc.get('schema')!r}, "
                f"expected {HISTORY_SCHEMA!r})"
            )
        if doc.get("version") != HISTORY_VERSION:
            raise TraceFormatError(
                f"unsupported history version {doc.get('version')!r} "
                f"(this reader handles {HISTORY_VERSION})"
            )
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict):
            raise TraceFormatError("history entry has no metrics object")
        seq = doc.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise TraceFormatError(f"history entry has no integer seq: {seq!r}")
        return cls(
            source=str(doc.get("source", "?")),
            run_id=str(doc.get("run_id", "?")),
            metrics={str(k): v for k, v in metrics.items()},
            meta=dict(doc.get("meta") or {}),  # type: ignore[arg-type]
            git_commit=doc.get("git_commit"),  # type: ignore[arg-type]
            recorded_at=doc.get("recorded_at"),  # type: ignore[arg-type]
            seq=seq,
        )


class HistoryStore:
    """The append-only history file."""

    def __init__(self, path: str) -> None:
        self.path = pathlib.Path(path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Is there any history yet?"""
        return self.path.exists()

    def entries(self) -> List[HistoryEntry]:
        """Every entry, oldest first.

        Raises:
            TraceFormatError: on a garbled line, with its line number
                (the store never guesses around corruption).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        out: List[HistoryEntry] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{self.path}: line {lineno}: not valid JSON "
                    f"({exc.msg} at column {exc.colno})"
                ) from exc
            if not isinstance(doc, dict):
                raise TraceFormatError(
                    f"{self.path}: line {lineno}: expected a JSON object"
                )
            try:
                out.append(HistoryEntry.from_json(doc))
            except TraceFormatError as exc:
                raise TraceFormatError(
                    f"{self.path}: line {lineno}: {exc}"
                ) from exc
        return out

    def last(self, n: int = 1) -> List[HistoryEntry]:
        """The most recent ``n`` entries, oldest of them first."""
        return self.entries()[-n:]

    def series(self, metric: str) -> List[Tuple[int, float]]:
        """``(seq, value)`` for every entry that carries ``metric``."""
        out: List[Tuple[int, float]] = []
        for entry in self.entries():
            if metric in entry.metrics:
                out.append((entry.seq or 0, float(entry.metrics[metric])))
        return out

    def metric_names(self) -> List[str]:
        """Every metric name seen anywhere in the history, sorted."""
        names = set()
        for entry in self.entries():
            names.update(entry.metrics)
        return sorted(names)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, entry: HistoryEntry) -> HistoryEntry:
        """Append one entry; assigns ``seq``/``recorded_at`` in place.

        The line is flushed and fsync'd before returning (journal
        discipline) — once :meth:`append` returns, the entry survives
        a crash.
        """
        existing = self.entries()
        entry.seq = (existing[-1].seq or len(existing)) + 1 if existing else 1
        if entry.recorded_at is None:
            entry.recorded_at = time.time()
        if self.path.parent and not self.path.parent.is_dir():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_json(), sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        return entry
