"""SLO declarations, attainment windows, error-budget burn."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.slo import SLO, SLOTracker, default_serve_slos, slos_from_json


class TestSLO:
    def test_latency_objective_judges_latency_and_errors(self):
        slo = SLO("fast", op="step", target=0.9, latency_s=0.1)
        assert slo.is_good(0.05, error=False)
        assert not slo.is_good(0.2, error=False)  # too slow
        assert not slo.is_good(0.05, error=True)  # errored
        assert slo.error_budget == pytest.approx(0.1)

    def test_availability_objective_ignores_latency(self):
        slo = SLO("up", target=0.999)
        assert slo.is_good(100.0, error=False)
        assert not slo.is_good(0.0, error=True)

    def test_op_scoping(self):
        assert SLO("a", op="step").watches("step")
        assert not SLO("a", op="step").watches("create")
        assert SLO("a", op="*").watches("anything")

    def test_objective_is_human_readable(self):
        assert SLO("x", op="step", target=0.95, latency_s=0.25).objective() == (
            "95% of step <= 250ms"
        )
        assert SLO("y", target=0.999).objective() == "99.9% of all ops succeed"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "x", "target": 0.0},
            {"name": "x", "target": 1.0},
            {"name": "x", "latency_s": 0.0},
            {"name": "x", "window": 0},
        ],
    )
    def test_invalid_declarations_rejected(self, kwargs):
        with pytest.raises(ObservabilityError):
            SLO(**kwargs)

    def test_config_round_trip(self):
        slos = default_serve_slos()
        parsed = slos_from_json([slo.to_json() for slo in slos])
        assert parsed == slos

    def test_duplicate_names_rejected(self):
        with pytest.raises(ObservabilityError, match="duplicate"):
            slos_from_json([{"name": "a"}, {"name": "a"}])

    def test_malformed_config_rejected(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            slos_from_json([{"op": "step"}])  # no name
        with pytest.raises(ObservabilityError):
            slos_from_json(["not-an-object"])  # type: ignore[list-item]


class TestSLOTracker:
    def test_empty_window_is_vacuously_ok(self):
        tracker = SLOTracker(default_serve_slos())
        assert tracker.attainment("step-latency") == 1.0
        assert tracker.all_ok()

    def test_attainment_and_burn(self):
        tracker = SLOTracker((SLO("fast", op="step", target=0.9,
                                  latency_s=0.1, window=10),))
        for _ in range(8):
            tracker.observe("step", 0.01)
        tracker.observe("step", 0.5)   # slow
        tracker.observe("step", 0.01, error=True)  # errored
        assert tracker.attainment("fast") == pytest.approx(0.8)
        # bad fraction 0.2 over budget 0.1 -> burn 2.0
        assert tracker.burn("fast") == pytest.approx(2.0)
        assert not tracker.all_ok()

    def test_window_rolls(self):
        tracker = SLOTracker((SLO("fast", op="*", target=0.5,
                                  latency_s=0.1, window=4),))
        for _ in range(4):
            tracker.observe("step", 9.0)  # all bad
        assert tracker.attainment("fast") == 0.0
        for _ in range(4):
            tracker.observe("step", 0.01)  # all good, evicting the bad
        assert tracker.attainment("fast") == 1.0

    def test_unwatched_ops_do_not_count(self):
        tracker = SLOTracker((SLO("steps", op="step", target=0.9),))
        tracker.observe("create", 0.0, error=True)
        assert tracker.attainment("steps") == 1.0

    def test_status_rows_and_metrics(self):
        tracker = SLOTracker(default_serve_slos())
        tracker.observe("step", 0.01)
        rows = tracker.status()
        assert [row["name"] for row in rows] == ["step-latency", "availability"]
        assert all(row["ok"] for row in rows)
        assert rows[0]["attainment"] == 1.0
        assert rows[1]["burn"] == 0.0
        assert tracker.all_ok()
