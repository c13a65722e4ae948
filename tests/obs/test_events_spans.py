"""The event model and the span builders derived from it."""

from __future__ import annotations

import pytest

from repro.errors import TraceFormatError
from repro.obs.events import (
    BIT_ENCODE_STARTED,
    BIT_RECEIPT,
    EVENT_KINDS,
    STEP,
    Event,
)
from repro.obs.spans import activation_spans, bit_spans


class TestEvent:
    def test_json_roundtrip_is_exact(self):
        event = Event(STEP, 4, {"active": [0, 2], "epoch": 7})
        assert Event.from_json(event.to_json()) == event

    def test_attr_colliding_with_envelope_is_rejected(self):
        with pytest.raises(TraceFormatError):
            Event(STEP, 0, {"kind": "oops"}).to_json()

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(TraceFormatError):
            Event.from_json({"kind": "tea-break", "t": 0})

    def test_missing_or_bool_instant_is_rejected(self):
        with pytest.raises(TraceFormatError):
            Event.from_json({"kind": STEP})
        with pytest.raises(TraceFormatError):
            Event.from_json({"kind": STEP, "t": True})

    def test_every_declared_kind_parses(self):
        for kind in EVENT_KINDS:
            assert Event.from_json({"kind": kind, "t": 1}).kind == kind


class TestActivationSpans:
    def test_thirds_of_the_instant_per_active_robot(self):
        events = [Event(STEP, 5, {"active": [1]})]
        spans = activation_spans(events)
        assert [s.name for s in spans] == ["look", "compute", "move"]
        assert spans[0].start == pytest.approx(5.0)
        assert spans[-1].end == pytest.approx(6.0)
        assert all(s.robot == 1 for s in spans)
        assert all(s.seconds == pytest.approx(1.0 / 3.0) for s in spans)

    def test_idle_robots_get_no_spans(self):
        assert activation_spans([Event(STEP, 0, {"active": []})]) == []


class TestBitSpans:
    def test_kth_start_matches_kth_receipt_per_flow(self):
        events = [
            Event(BIT_ENCODE_STARTED, 0, {"src": 0, "dst": 1, "bit": 1}),
            Event(BIT_ENCODE_STARTED, 3, {"src": 0, "dst": 1, "bit": 0}),
            Event(BIT_RECEIPT, 2, {"src": 0, "dst": 1, "bit": 1}),
        ]
        spans = bit_spans(events)
        assert len(spans) == 2
        first, second = spans
        assert (first.start, first.end) == (0.0, 2.0)
        assert first.attrs["delivered"] is True
        assert second.end is None and second.seconds is None
        assert second.attrs["delivered"] is False
        assert second.attrs["seq"] == 1

    def test_flows_are_kept_apart(self):
        events = [
            Event(BIT_ENCODE_STARTED, 0, {"src": 0, "dst": 1, "bit": 1}),
            Event(BIT_ENCODE_STARTED, 0, {"src": 2, "dst": 3, "bit": 0}),
            Event(BIT_RECEIPT, 1, {"src": 2, "dst": 3, "bit": 0}),
        ]
        spans = bit_spans(events)
        by_flow = {(s.attrs["src"], s.attrs["dst"]): s for s in spans}
        assert by_flow[(0, 1)].end is None
        assert by_flow[(2, 3)].end == 1.0

