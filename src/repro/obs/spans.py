"""Spans: intervals derived from the event stream.

The SSM model packs a robot's whole Look–Compute–Move cycle into one
computation step ``(t_j, t_{j+1})``; the simulator executes the three
sub-phases atomically.  For *rendering and reasoning* it is still
useful to see them as intervals — RoboCast-style per-cycle analysis —
so this module derives them deterministically from the recorded
events:

* **activation spans**: every active robot at instant ``t`` gets
  Look / Compute / Move spans at the conventional thirds of
  ``(t, t+1)``.  The thirds are a rendering convention, not a timing
  claim: the model is atomic within the instant.
* **bit spans**: one span per transmitted bit, from its
  ``bit-encode-started`` event to its ``bit-receipt`` (open-ended when
  the bit was never delivered) — the rows of the CLI's Gantt view.
* **request spans**: the serving tier's telescoping legs of one client
  request, in ``perf_counter`` seconds (:class:`repro.obs.live.RequestTrace`).

The wall-clock phase profile is folded by
:func:`repro.obs.profiler.phase_hotspots`, not here.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.events import BIT_ENCODE_STARTED, BIT_RECEIPT, STEP, Event

__all__ = ["Span", "activation_spans", "bit_spans"]

#: Look/Compute/Move rendering convention: thirds of the instant.
_CYCLE = (("look", 0.0, 1.0 / 3.0), ("compute", 1.0 / 3.0, 2.0 / 3.0),
          ("move", 2.0 / 3.0, 1.0))


_NO_ATTRS: Mapping[str, object] = MappingProxyType({})


class Span:
    """A named interval, optionally owned by one robot.

    ``start``/``end`` are in *instant* units for model-time spans
    (activation cycles, bit lifetimes) and in *seconds* for wall-clock
    request spans.  ``end`` is None for spans that never closed (a bit
    that was lost).  A plain ``__slots__`` record: the serving tier
    builds several per traced request.
    """

    __slots__ = ("name", "start", "end", "robot", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        end: Optional[float],
        robot: Optional[int] = None,
        attrs: Mapping[str, object] = _NO_ATTRS,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.robot = robot
        self.attrs = attrs

    @property
    def seconds(self) -> Optional[float]:
        """Span length in its own units (``end - start``), None while open."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"Span({self.name!r}, {self.start!r}, {self.end!r})"


def activation_spans(events: Iterable[Event]) -> List[Span]:
    """Look/Compute/Move spans for every activation in the stream."""
    spans: List[Span] = []
    for event in events:
        if event.kind != STEP:
            continue
        active = event.get("active", ())
        for robot in active:  # type: ignore[union-attr]
            for name, lo, hi in _CYCLE:
                spans.append(
                    Span(
                        name=name,
                        start=event.time + lo,
                        end=event.time + hi,
                        robot=int(robot),
                    )
                )
    return spans


def bit_spans(events: Iterable[Event]) -> List[Span]:
    """One span per transmitted bit: encode-started -> receipt.

    Bits are paired per flow in queue order — the k-th encode start of
    flow ``(src, dst)`` matches the k-th receipt of that flow, which is
    exactly the in-order delivery the receipt invariant guarantees.
    A bit with no matching receipt yields an open span (lost, or the
    recording stopped first).
    """
    starts: Dict[Tuple[int, int], List[Event]] = {}
    receipts: Dict[Tuple[int, int], List[Event]] = {}
    for event in events:
        if event.kind == BIT_ENCODE_STARTED:
            flow = (int(event.get("src", -1)), int(event.get("dst", -1)))
            starts.setdefault(flow, []).append(event)
        elif event.kind == BIT_RECEIPT:
            flow = (int(event.get("src", -1)), int(event.get("dst", -1)))
            receipts.setdefault(flow, []).append(event)
    spans: List[Span] = []
    for flow in sorted(starts):
        src, dst = flow
        got = receipts.get(flow, [])
        for k, start in enumerate(starts[flow]):
            receipt = got[k] if k < len(got) else None
            spans.append(
                Span(
                    name=f"{src}->{dst}#{k}",
                    start=float(start.time),
                    end=None if receipt is None else float(receipt.time),
                    robot=src,
                    attrs={
                        "src": src,
                        "dst": dst,
                        "seq": k,
                        "bit": start.get("bit"),
                        "delivered": receipt is not None,
                    },
                )
            )
    return spans

