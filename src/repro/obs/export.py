"""Deterministic JSONL export of recorded runs — schema ``repro-obs-v1``.

Layout (one JSON object per line, like ``analysis/trace_io``):

* **header** — ``{"format": "repro-obs-v1", "version": 1,
  "meta": {...}}``.  ``meta`` always carries ``count`` and
  ``initial`` (the initial configuration); the recorder adds protocol,
  scheduler, seed and anything else the run builder knew.
* **event lines** — one per recorded :class:`~repro.obs.events.Event`,
  in recording order: ``{"kind": ..., "t": ..., ...attrs}``.
* **metrics trailer** — ``{"kind": "metrics", "series": [...]}`` with
  the registry's deterministic :meth:`~repro.obs.registry.
  MetricsRegistry.collect` snapshot.

The export round-trips exactly (events and metrics compare equal after
``load``), and the parser raises :class:`~repro.errors.
TraceFormatError` with a line number on truncated or garbled input —
never a bare ``KeyError``.  Paths ending in ``.gz`` are transparently
gzip-compressed on write and decompressed on read (deterministically:
the gzip mtime field is pinned, so identical runs stay byte-identical
even compressed).
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.errors import TraceFormatError
from repro.obs.events import Event

__all__ = ["FORMAT", "VERSION", "ObsRun", "run_to_jsonl", "run_from_jsonl",
           "dump_run", "load_run"]

FORMAT = "repro-obs-v1"
VERSION = 1


@dataclass
class ObsRun:
    """One recorded run: metadata, the event stream, and metrics.

    This is the loaded/loadable form — what the recorder freezes into,
    what the export writes, and what the CLI report renders.
    """

    meta: Dict[str, object] = field(default_factory=dict)
    events: List[Event] = field(default_factory=list)
    metrics: List[Dict[str, object]] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of robots (0 when the recording never saw the swarm)."""
        value = self.meta.get("count", 0)
        return int(value) if isinstance(value, (int, float)) else 0

    def of_kind(self, kind: str) -> List[Event]:
        """Every event of one kind, in recording order."""
        return [e for e in self.events if e.kind == kind]

    @property
    def steps(self) -> List[Event]:
        """The per-instant step events."""
        return self.of_kind("step")

    @property
    def total_instants(self) -> int:
        """Instants covered by the recording."""
        steps = self.steps
        return (steps[-1].time + 1) if steps else 0


def run_to_jsonl(run: ObsRun) -> str:
    """Serialise a run to JSON-lines text (deterministic)."""
    lines: List[str] = [
        json.dumps(
            {"format": FORMAT, "version": VERSION, "meta": run.meta},
            sort_keys=True,
        )
    ]
    for event in run.events:
        lines.append(json.dumps(event.to_json(), sort_keys=True))
    lines.append(json.dumps({"kind": "metrics", "series": run.metrics}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _records(text: str) -> Iterator[tuple]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"line {lineno}: not valid JSON ({exc.msg} at column {exc.colno})"
            ) from exc
        if not isinstance(record, dict):
            raise TraceFormatError(
                f"line {lineno}: expected a JSON object, got {type(record).__name__}"
            )
        yield lineno, record


def run_from_jsonl(text: str) -> ObsRun:
    """Parse a run back from JSON-lines text.

    Raises:
        TraceFormatError: on an empty document, wrong/unknown header,
            garbled line, or missing metrics trailer fields — always
            with the offending line number.
    """
    records = _records(text)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise TraceFormatError("empty obs document") from None
    if header.get("format") != FORMAT:
        raise TraceFormatError(
            f"line {lineno}: unknown obs format {header.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    version = header.get("version")
    if version != VERSION:
        raise TraceFormatError(
            f"line {lineno}: unsupported schema version {version!r} "
            f"(this reader handles {VERSION})"
        )
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise TraceFormatError(f"line {lineno}: header has no meta object")

    run = ObsRun(meta=meta)
    saw_metrics = False
    for lineno, record in records:
        if saw_metrics:
            raise TraceFormatError(
                f"line {lineno}: content after the metrics trailer"
            )
        if record.get("kind") == "metrics":
            series = record.get("series")
            if not isinstance(series, list):
                raise TraceFormatError(
                    f"line {lineno}: metrics trailer has no series list"
                )
            run.metrics = series
            saw_metrics = True
            continue
        try:
            run.events.append(Event.from_json(record))
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    return run


def _open_text(path: str, mode: str):
    """Open ``path`` for text I/O, transparently gzipped for ``*.gz``.

    Large-n traces are multi-megabyte; a ``run.jsonl.gz`` path makes
    both :func:`dump_run` and :func:`load_run` stream through gzip.
    Writes pin ``mtime=0`` and omit the embedded-filename header field
    so identical runs produce byte-identical compressed files whatever
    they are called (the same determinism contract the plain JSONL
    export keeps).
    """
    if str(path).endswith(".gz"):
        binary_mode = "wb" if "w" in mode else "rb"
        raw = open(path, binary_mode)
        binary = gzip.GzipFile(
            filename="", fileobj=raw, mode=binary_mode, mtime=0
        )
        # GzipFile only closes files it opened itself; handing the raw
        # file over via myfileobj makes close() cascade to it.
        binary.myfileobj = raw
        return io.TextIOWrapper(binary, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def dump_run(run: ObsRun, path: str) -> str:
    """Write a run to ``path`` (gzipped when it ends in ``.gz``);
    returns the path."""
    with _open_text(path, "w") as handle:
        handle.write(run_to_jsonl(run))
    return path


def load_run(path: str) -> ObsRun:
    """Read a run previously written by :func:`dump_run` (plain or
    gzipped, decided by the ``.gz`` suffix)."""
    with _open_text(path, "r") as handle:
        return run_from_jsonl(handle.read())
