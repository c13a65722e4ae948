"""Regression gating over the metrics history."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.__main__ import main
from repro.obs.history import (
    HistoryEntry,
    HistoryStore,
    RegressPolicy,
    detect,
    direction_of,
    render_regressions,
)
from repro.obs.history.regress import baseline, mad, median


def _entries(*metric_dicts):
    return [
        HistoryEntry(source="test", run_id="t", metrics=dict(m), seq=i + 1)
        for i, m in enumerate(metric_dicts)
    ]


class TestStatistics:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_mad_is_robust_to_one_outlier(self):
        values = [1.0, 1.0, 1.0, 1.0, 100.0]
        med, deviation = baseline(values)
        assert med == 1.0
        assert deviation == 0.0
        assert mad([1.0, 2.0, 3.0]) == 1.0


class TestDirection:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("cached_s", "lower"),
            ("elapsed_s", "lower"),
            ("cached_s{probe=sync_throughput_n64}", "lower"),
            ("sim_phase_seconds{phase=move}.sum", "lower"),
            ("cache_misses", "lower"),
            ("speedup", "higher"),
            ("uncached_steps_per_sec", "higher"),
            ("hit_rate", "higher"),
            ("invariant.caching_trace_identical", "either"),
            ("sim_epoch", "either"),
        ],
    )
    def test_name_conventions(self, name, expected):
        assert direction_of(name) == expected


class TestDetect:
    def test_identical_runs_are_clean(self):
        entries = _entries(*[{"cached_s": 0.5, "speedup": 4.0}] * 5)
        report = detect(entries)
        assert report.ok
        assert report.checked == 2
        assert report.skipped == 0

    def test_synthetic_3x_slowdown_names_the_metric(self):
        entries = _entries(
            *[{"cached_s": 0.5}] * 4, {"cached_s": 1.5}
        )
        report = detect(entries)
        assert not report.ok
        assert [f.metric for f in report.findings] == ["cached_s"]
        finding = report.findings[0]
        assert finding.value == 1.5
        assert finding.baseline_median == 0.5
        assert finding.direction == "lower"
        assert "cached_s" in render_regressions(report)

    def test_improvement_in_the_good_direction_never_flags(self):
        entries = _entries(*[{"cached_s": 0.5}] * 4, {"cached_s": 0.1})
        assert detect(entries).ok

    def test_higher_is_better_metrics_flag_drops(self):
        entries = _entries(*[{"speedup": 5.0}] * 4, {"speedup": 1.5})
        report = detect(entries)
        assert [f.metric for f in report.findings] == ["speedup"]

    def test_min_samples_guard_skips_young_metrics(self):
        entries = _entries({"cached_s": 0.5}, {"cached_s": 99.0})
        report = detect(entries)
        assert report.ok
        assert report.skipped == 1
        assert report.checked == 0

    def test_mad_noise_band_absorbs_ordinary_jitter(self):
        noisy = [{"cached_s": v} for v in (0.50, 0.55, 0.45, 0.52, 0.48)]
        entries = _entries(*noisy, {"cached_s": 0.56})
        # 0.56 clears the 10% relative gate (12% over the median) but
        # sits inside the MAD noise band of this jittery baseline, so
        # it must not flag — both gates are required.
        assert detect(entries).ok

    def test_direction_override_wins(self):
        entries = _entries(*[{"weird": 1.0}] * 4, {"weird": 3.0})
        policy = RegressPolicy(directions={"weird": "higher"})
        assert detect(entries, policy).ok  # up is good now

    def test_metric_restriction(self):
        entries = _entries(
            *[{"cached_s": 0.5, "other_s": 0.5}] * 4,
            {"cached_s": 1.5, "other_s": 1.5},
        )
        policy = RegressPolicy(metrics=("other_s",))
        report = detect(entries, policy)
        assert [f.metric for f in report.findings] == ["other_s"]

    @pytest.mark.parametrize("window", [0, -1])
    def test_nonpositive_window_is_rejected(self, window):
        with pytest.raises(ObservabilityError, match="window must be positive"):
            RegressPolicy(window=window)

    def test_empty_history(self):
        report = detect([])
        assert report.ok
        assert "empty history" in render_regressions(report)


class TestCli:
    def _seed(self, tmp_path, rows):
        store = HistoryStore(str(tmp_path / "h.jsonl"))
        for row in rows:
            store.append(HistoryEntry(source="t", run_id="t", metrics=row))
        return str(store.path)

    def test_identical_history_exits_zero(self, tmp_path, capsys):
        path = self._seed(tmp_path, [{"cached_s": 0.5}] * 5)
        assert main(["regress", "--history", path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_slowdown_gates_with_exit_three(self, tmp_path, capsys):
        path = self._seed(tmp_path, [{"cached_s": 0.5}] * 4 + [{"cached_s": 1.5}])
        assert main(["regress", "--history", path]) == 3
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "cached_s" in out

    def test_report_only_never_gates(self, tmp_path):
        path = self._seed(tmp_path, [{"cached_s": 0.5}] * 4 + [{"cached_s": 1.5}])
        assert main(["regress", "--history", path, "--report-only"]) == 0

    def test_missing_history_is_a_one_line_error(self, tmp_path, capsys):
        assert main(
            ["regress", "--history", str(tmp_path / "absent.jsonl")]
        ) == 1
        err = capsys.readouterr().err
        assert "no such history file" in err
        assert "Traceback" not in err

    def test_tolerance_flags_are_respected(self, tmp_path):
        path = self._seed(tmp_path, [{"cached_s": 0.5}] * 4 + [{"cached_s": 1.5}])
        assert main(
            ["regress", "--history", path, "--rel-tolerance", "5.0"]
        ) == 0
