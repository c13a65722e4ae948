"""Smoke test for the experiment driver.

``python benchmarks/run_all.py`` regenerates every experiment table
(the EXPERIMENTS.md source) and then runs the invariant gate; this
test keeps the whole driver green — an experiment module that starts
crashing is caught here even if its pytest-benchmark wrapper is
skipped.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
from types import SimpleNamespace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestRunAll:
    def test_every_experiment_table_regenerates(self):
        result = subprocess.run(
            [sys.executable, "benchmarks/run_all.py"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        ok_lines = [line for line in result.stdout.splitlines() if ": ok in" in line]
        # At least one success line per experiment module registered in
        # MODULES (parametrized modules contribute one line per cell).
        source = (REPO_ROOT / "benchmarks" / "run_all.py").read_text()
        modules_block = source.split("MODULES = [", 1)[1].split("]", 1)[0]
        registered = [
            line.strip().rstrip(",")
            for line in modules_block.splitlines()
            if "bench_" in line
        ]
        succeeded = {line.split("[", 1)[1].split(":", 1)[0] for line in ok_lines}
        missing = [
            name for name in registered
            if f"benchmarks.{name}" not in succeeded
        ]
        assert not missing, f"no success line for {missing}"
        assert len(ok_lines) >= len(registered)
        assert "FAILED" not in result.stderr
        # the full run ends with the invariant gate
        assert "[invariant sync_granular_two_steps_per_bit: ok]" in result.stdout


class TestQuickGate:
    """``--quick`` must gate CI: any violated check => nonzero exit."""

    def _cheap_probes(self, monkeypatch, run_all, **overrides):
        """Replace every gate check with a cheap stub, then apply overrides."""
        good = {
            "adversarial_transparency_probe": lambda: {
                "seeds": 0, "runs": 0, "failures": 0, "ok": True,
                "violations": [],
            },
            "sync_invariant_holds": lambda: True,
        }
        good.update(overrides)
        for name, fake in good.items():
            monkeypatch.setattr(run_all, name, fake)

    def test_quick_mode_exits_zero_when_clean(self, monkeypatch):
        import benchmarks.run_all as run_all

        self._cheap_probes(monkeypatch, run_all)
        assert run_all.main(["--quick"]) == 0

    def test_sync_invariant_violation_exits_nonzero(self, monkeypatch, capsys):
        import benchmarks.run_all as run_all

        self._cheap_probes(
            monkeypatch, run_all, sync_invariant_holds=lambda: False
        )
        assert run_all.main(["--quick"]) == 1
        assert (
            "[invariant sync_granular_two_steps_per_bit: VIOLATED]"
            in capsys.readouterr().out
        )

    def test_transparency_violation_exits_nonzero(self, monkeypatch):
        """A caching-transparency failure in the verify matrix fails --quick."""
        import benchmarks.run_all as run_all
        import repro.verify

        diverged = SimpleNamespace(violations=["[transparency @ end] traces diverged"])
        report = SimpleNamespace(results=[diverged], failures=[diverged], ok=False)
        monkeypatch.setattr(
            repro.verify, "run_matrix", lambda **kwargs: report
        )
        monkeypatch.setattr(run_all, "sync_invariant_holds", lambda: True)
        assert run_all.main(["--quick"]) == 1

    def test_adversarial_violation_exits_nonzero(self, monkeypatch):
        import benchmarks.run_all as run_all

        self._cheap_probes(
            monkeypatch, run_all,
            adversarial_transparency_probe=lambda: {
                "seeds": 1, "runs": 25, "failures": 3, "ok": False,
                "violations": ["[transparency @ end] traces diverged"],
            },
        )
        assert run_all.main(["--quick"]) == 1

    def test_crashing_probe_is_a_failure_not_a_traceback(self, monkeypatch, capsys):
        import benchmarks.run_all as run_all

        def boom():
            raise RuntimeError("probe exploded")

        self._cheap_probes(
            monkeypatch, run_all, adversarial_transparency_probe=boom
        )
        assert run_all.main(["--quick"]) == 1
        captured = capsys.readouterr()
        assert "probe exploded" in captured.err
        # the other verdicts are still reported
        assert "[invariant sync_granular_two_steps_per_bit: ok]" in captured.out


class TestObsFlag:
    """``--obs PATH`` exports a run and gates on transparency."""

    def test_obs_export_is_loadable_and_reported(self, monkeypatch, tmp_path, capsys):
        import benchmarks.run_all as run_all
        from repro.obs.export import load_run

        TestQuickGate._cheap_probes(TestQuickGate(), monkeypatch, run_all)
        obs_path = tmp_path / "run.jsonl"
        assert run_all.main(["--quick", "--obs", str(obs_path)]) == 0
        run = load_run(str(obs_path))
        assert run.total_instants > 0
        out = capsys.readouterr().out
        assert f"[obs: {len(run.events)} events" in out
        assert "[invariant obs_transparency: ok]" in out

    def test_opaque_recorder_exits_nonzero(self, monkeypatch, tmp_path):
        import benchmarks.run_all as run_all

        TestQuickGate._cheap_probes(TestQuickGate(), monkeypatch, run_all)
        monkeypatch.setattr(
            run_all,
            "obs_probe",
            lambda path, n=8, steps=24: {
                "path": path, "n": n, "steps": steps,
                "events": 0, "transparent": False, "metrics": [],
            },
        )
        assert run_all.main(["--quick", "--obs", str(tmp_path / "r.jsonl")]) == 1

    def test_crashing_obs_probe_is_a_failure(self, monkeypatch, tmp_path):
        import benchmarks.run_all as run_all

        def boom(path, n=8, steps=24):
            raise RuntimeError("recorder exploded")

        TestQuickGate._cheap_probes(TestQuickGate(), monkeypatch, run_all)
        monkeypatch.setattr(run_all, "obs_probe", boom)
        assert run_all.main(["--quick", "--obs", str(tmp_path / "r.jsonl")]) == 1
