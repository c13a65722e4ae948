"""In-memory spans for the traced benchmark run.

A :class:`Tracer` records one span per call into a layer: its name,
start, end and parent, all under one run id.  Spans nest through a
stack, which is sound because every span wraps synchronous code: the
serve workloads only wrap calls that the in-process worker pool runs
without yielding to the event loop.

Calls too frequent to keep one span each (channel polls, engine phase
segments) are *leaf timers*: their seconds are added to the enclosing
span under the leaf's name.  A layer's self time is then its span
duration minus its child spans and its leaf seconds, and each leaf name
is a layer of its own.

The tracer reaches into the program only by replacing attributes
(:meth:`Tracer.patch`) for the duration of a traced iteration and by
the simulator's public ``set_phase_hook``; :meth:`Tracer.unpatch` puts
every attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["PHASE_LAYERS", "Span", "Tracer"]

#: simulator phase-hook names -> the layer their segment is charged to
PHASE_LAYERS = {
    "schedule": "model.simulator.schedule",
    "compute": "model.simulator.compute",
    "compute.observe": "model.simulator.observe",
    "compute.decide": "model.simulator.decide",
    "move": "model.simulator.move",
    "record": "model.simulator.record",
}

_clock = time.perf_counter


class Span:
    """One timed call into a layer."""

    __slots__ = ("id", "parent", "name", "start", "end", "leaves")

    def __init__(self, span_id: int, parent: Optional[int], name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = _clock()
        self.end = self.start
        self.leaves: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self, run_id: str) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "run": run_id,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.leaves:
            doc["leaves"] = self.leaves
        return doc


class Tracer:
    """Spans, leaf timers and counters of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._phase: Optional[str] = None
        self._phase_start = 0.0

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> Span:
        """Start a span as a child of the innermost open one."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End the innermost span (which must be ``span``)."""
        span.end = _clock()
        if not self._stack or self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` — a span around a block."""
        return _SpanContext(self, name)

    def inside(self, name: str) -> bool:
        """Whether an open span has this name."""
        return any(span.name == name for span in self._stack)

    # -- leaves and counters ----------------------------------------------
    def leaf(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` to leaf layer ``name`` of the open span."""
        top = self._stack[-1]
        if top.leaves is None:
            top.leaves = {}
        top.leaves[name] = top.leaves.get(name, 0.0) + seconds

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def phase_hook(self, phase: str, _time: int) -> None:
        """A simulator ``set_phase_hook`` hook: phase segments as leaves."""
        now = _clock()
        if self._phase is not None:
            self.leaf(self._phase, now - self._phase_start)
        self._phase = PHASE_LAYERS.get(phase)
        self._phase_start = now

    # -- patching ---------------------------------------------------------
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`unpatch`.

        A classmethod is unwrapped before ``make`` sees it and wrapped
        again after, so the replacement receives ``cls`` first.
        """
        raw = vars(owner)[attr]
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def patch_span(self, owner: object, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(span)

            return traced

        self.patch(owner, attr, make)

    def patch_leaf(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as leaf layer ``name``."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                started = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.leaf(name, _clock() - started)
                    self.count(name)

            return timed

        self.patch(owner, attr, make)

    def unpatch(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------
    def self_times(self, roots: List[Span]) -> Dict[str, float]:
        """Self seconds per layer over the subtrees of ``roots``."""
        spans = list(self._subtrees(roots))
        child: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                child[span.parent] = child.get(span.parent, 0.0) + span.seconds
        out: Dict[str, float] = {}
        for span in spans:
            leaves = span.leaves or {}
            own = span.seconds - child.get(span.id, 0.0) - sum(leaves.values())
            out[span.name] = out.get(span.name, 0.0) + own
            for name, seconds in leaves.items():
                out[name] = out.get(name, 0.0) + seconds
        return out

    def coverage(self, root: Span, wall_s: float) -> float:
        """Share of ``wall_s`` covered by the layer spans and leaves under ``root``.

        The root is the benchmark's own iteration span; its child spans
        are sequential (the stack guarantees it), so their durations add.
        """
        if wall_s <= 0.0:
            return 0.0
        covered = sum(s.seconds for s in self.spans if s.parent == root.id)
        covered += sum((root.leaves or {}).values())
        return covered / wall_s

    def _subtrees(self, roots: List[Span]) -> Iterator[Span]:
        keep = {root.id for root in roots}
        for span in self.spans:  # parents precede children
            if span.id in keep or span.parent in keep:
                keep.add(span.id)
                yield span

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_json(self.run_id)) + "\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        self._span = self._tracer.open(self._name)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer.close(self._span)
